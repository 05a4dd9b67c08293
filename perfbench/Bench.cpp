//===- perfbench/Bench.cpp - Shared benchmark plumbing --------------------===//
//
// Part of the nAdroid reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Passes.h"

#include "support/Rng.h"
#include "support/Sha256.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <sys/resource.h>

using namespace perfbench;

bool Checks::expect(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return true;
  if (++Failed <= 10)
    std::cerr << "perfbench: FAILED: " << What << "\n";
  return false;
}

double perfbench::secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string perfbench::readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

bool perfbench::writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  return static_cast<bool>(Out);
}

std::string perfbench::sha256Hex(const std::string &Text) {
  nadroid::support::Sha256 H;
  H.update(Text);
  return H.finalHex();
}

std::string perfbench::formattingEdit(const std::string &Air) {
  return "// edited: formatting only\n" + Air;
}

std::string perfbench::bodyEdit(const std::string &Air, uint64_t Seed) {
  // The printer puts each method header on a line of its own ending in
  // "{"; the body follows at two more columns of indentation.
  std::vector<size_t> Headers;
  size_t Pos = 0;
  while (Pos < Air.size()) {
    size_t Eol = Air.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Air.size();
    std::string_view Line(Air.data() + Pos, Eol - Pos);
    size_t Indent = Line.find_first_not_of(' ');
    if (Indent != std::string_view::npos &&
        Line.substr(Indent).starts_with("method ") && Line.ends_with("{"))
      Headers.push_back(Eol + 1);
    Pos = Eol + 1;
  }
  if (Headers.empty())
    return Air;
  nadroid::Rng R(Seed);
  size_t At = Headers[R.below(Headers.size())];
  return Air.substr(0, At) + "    zzb = this;\n" + Air.substr(At);
}

unsigned perfbench::runLoop(const Options &O, unsigned MinIterations,
                            Tracer &T, const IterationFn &Iteration) {
  auto RunFor = [&](double Seconds, Tracer *Tr) {
    auto End = Clock::now() + std::chrono::duration<double>(Seconds);
    unsigned N = 0;
    for (; N < MinIterations || Clock::now() < End; ++N)
      Iteration(Tr);
    return N;
  };
  if (!O.Trace) {
    RunFor(O.Seconds, nullptr);
    return 0;
  }
  RunFor(O.Seconds / 2, nullptr);
  return RunFor(O.Seconds / 2, &T);
}

std::vector<Metric>
perfbench::endToEndMetrics(const std::vector<double> &SetupSec,
                           const std::vector<double> &ColdMs,
                           const std::vector<double> &IncrMs,
                           const std::vector<double> &IterationSec) {
  return {{"setup_s", median(SetupSec), "s"},
          {"cold_p50_ms", median(ColdMs), "ms"},
          {"incr_p50_ms", median(IncrMs), "ms"},
          {"pass_s", median(IterationSec), "s"},
          {"peak_rss_mb", peakRssMb(), "MB"}};
}

std::vector<Metric> perfbench::layerMetrics(const Tracer &T,
                                            unsigned Iterations,
                                            double UntracedMedianSec,
                                            double TracedMedianSec,
                                            double CacheHitRatio,
                                            double RegraftRebuildRatio) {
  std::vector<Metric> Out;
  std::map<std::string, int64_t> Self = T.selfTimes();
  double PerIteration = Iterations ? 1.0 / Iterations : 0.0;
  for (const char *Name : layerSpanNames())
    Out.push_back({std::string(Name) + "_ms",
                   Self[Name] / 1e6 * PerIteration, "ms"});
  int64_t WallNs = 0;
  for (const Span &S : T.spans())
    if (std::string_view(S.Name) == IterationSpan)
      WallNs += S.EndNs - S.StartNs;
  Out.push_back({"trace.unattributed_frac",
                 WallNs ? double(Self[IterationSpan]) / WallNs : 0.0,
                 "ratio"});
  Out.push_back({"trace.overhead_frac",
                 UntracedMedianSec > 0
                     ? TracedMedianSec / UntracedMedianSec - 1.0
                     : 0.0,
                 "ratio"});
  Out.push_back({"cache.hit_ratio", CacheHitRatio, "ratio"});
  Out.push_back({"pipeline.regraft_rebuild_ratio", RegraftRebuildRatio,
                 "ratio"});
  return Out;
}
