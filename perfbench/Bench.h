//===- perfbench/Bench.h - Shared benchmark plumbing -------------*- C++ -*-===//
//
// Part of the nAdroid reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run options, the result it hands back
/// to Main.cpp (metrics, checks, input descriptors), the closed loop
/// that splits a traced run into an untraced and a traced half,
/// and the text edits the incremental workloads apply.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Trace.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 99;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir; ///< scratch space inside the checkout
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Counts attempted operations and failed ones; the first few failures
/// are described on stderr.
struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// One attempted operation; counts a failure unless \p Ok.
  bool expect(bool Ok, const std::string &What);
};

/// The exact size of what a workload analyzes. Printed on every run and
/// compared with the values recorded for the default and held-out seeds.
struct Inputs {
  unsigned Apps = 0;
  unsigned long long Stmts = 0;
  unsigned long long Threads = 0;
  unsigned long long Warnings = 0;
  unsigned Sessions = 0;   ///< serve session capacity (0 = no server)
  unsigned WorkingSet = 0; ///< apps the server cycles through
};

struct Result {
  Checks C;
  Inputs In;
  std::vector<Metric> Metrics;
  std::vector<std::string> Lines; ///< human-readable report lines
  std::string Digest; ///< SHA-256 of the workload's reference report
};

Result runCorpusBatch(const Options &O, Tracer &T);
Result runGiantApp(const Options &O, Tracer &T);
Result runServeEdit(const Options &O, Tracer &T);

/// Set-up runs this many times before the closed loop and once more
/// after every iteration, outside its timing, so its median samples the
/// whole run rather than one moment of it.
inline constexpr int InitialSetups = 3;

double secondsSince(Clock::time_point T0);
double median(std::vector<double> V);
/// Nearest-rank quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);
double peakRssMb();
std::string readFile(const std::string &Path);
bool writeFile(const std::string &Path, const std::string &Text);
std::string sha256Hex(const std::string &Text);

/// A formatting-only edit: a comment line in front, so every location
/// moves and no statement changes.
std::string formattingEdit(const std::string &Air);

/// A semantically neutral body edit: `zzb = this;` as the first
/// statement of one method, chosen by \p Seed among the printed program's
/// method bodies.
std::string bodyEdit(const std::string &Air, uint64_t Seed);

/// The closed loop of a whole run. The callback gets the tracer (null
/// for an untraced iteration) and wraps its timed region in an
/// IterationSpan. With tracing off every iteration is untraced; with it
/// on, the first half of the time runs untraced (the overhead baseline)
/// and the second half traced. Each half runs at least \p MinIterations
/// times. Returns the number of traced iterations.
using IterationFn = std::function<void(Tracer *)>;
unsigned runLoop(const Options &O, unsigned MinIterations, Tracer &T,
                 const IterationFn &Iteration);

/// The end-to-end metrics (--trace 0), the same five for every workload:
/// medians of set-up time, the cold and the incremental operation, and
/// one iteration, plus the process's peak resident set.
std::vector<Metric> endToEndMetrics(const std::vector<double> &SetupSec,
                                    const std::vector<double> &ColdMs,
                                    const std::vector<double> &IncrMs,
                                    const std::vector<double> &IterationSec);

/// The per-layer metrics of a traced run (--trace 1): each layer span's
/// self time per traced iteration, the share of iteration wall time no
/// layer span covers, the tracing overhead (traced vs untraced median
/// iteration), and the workload's two measured ratios (0 where the
/// workload has no cache or no regraft).
std::vector<Metric> layerMetrics(const Tracer &T, unsigned Iterations,
                                 double UntracedMedianSec,
                                 double TracedMedianSec, double CacheHitRatio,
                                 double RegraftRebuildRatio);

/// Name of the span every traced iteration is wrapped in. It is not a
/// layer: its self time is the unattributed remainder.
inline constexpr const char *IterationSpan = "bench.iteration";

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
