//===- perfbench/Main.cpp - Benchmark entry point ------------------------===//
//
// Part of the nAdroid reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
//   nadroid_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --work-dir DIR [--trace-out FILE]
//
// Runs one workload closed-loop for S seconds, checks its outputs, and
// prints human-readable lines followed by one JSON object on the last
// line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones,
// and the spans are written to FILE as Chrome trace-event JSON.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

using namespace perfbench;

namespace {

/// Input descriptors and reference-report digests recorded at the commit
/// that defined the benchmark, for the default seed (99) and the
/// held-out seed (7). A run on either seed that sees anything else is
/// measuring a different workload and fails instead of reporting times.
struct Recorded {
  const char *Workload;
  uint64_t Seed;
  Inputs In;
  const char *Digest;
};

const Recorded RecordedInputs[] = {
    {"corpus-batch", 99, {27, 44186, 733, 9607, 0, 0}, "7553bda54d6905ee"},
    {"corpus-batch", 7, {27, 44186, 733, 9607, 0, 0}, "7553bda54d6905ee"},
    {"giant-app", 99, {1, 66658, 1895, 12265, 0, 0}, "920d98473d04f0a2"},
    {"giant-app", 7, {1, 65680, 1827, 11747, 0, 0}, "ac83da6e7e093d8c"},
    {"serve-edit", 99, {27, 44186, 733, 9607, 8, 27}, "c0bfaeda83f074bc"},
    {"serve-edit", 7, {27, 44186, 733, 9607, 8, 27}, "2b80a36aa501cc2e"},
};

const Recorded *findRecorded(const std::string &Workload, uint64_t Seed) {
  for (const Recorded &R : RecordedInputs)
    if (Workload == R.Workload && Seed == R.Seed)
      return &R;
  return nullptr;
}

std::string describe(const Inputs &In, const std::string &Digest) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "apps=%u stmts=%llu threads=%llu warnings=%llu "
                "sessions=%u working_set=%u digest=%s",
                In.Apps, In.Stmts, In.Threads, In.Warnings, In.Sessions,
                In.WorkingSet, Digest.substr(0, 16).c_str());
  return Buf;
}

bool parseArgs(int Argc, char **Argv, Options &O, std::string &TraceOut) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Value;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
    } else if (Flag == "--trace") {
      O.Trace = Value == "1";
      if (Value != "0" && Value != "1")
        return false;
    } else if (Flag == "--work-dir") {
      O.WorkDir = Value;
    } else if (Flag == "--trace-out") {
      TraceOut = Value;
    } else {
      return false;
    }
    if (End && *End)
      return false;
  }
  return Argc % 2 == 1 && !O.Workload.empty() && !O.WorkDir.empty() &&
         O.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string TraceOut;
  if (!parseArgs(Argc, Argv, O, TraceOut)) {
    std::cerr << "usage: nadroid_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]\n";
    return 2;
  }
  Result (*Run)(const Options &, Tracer &) = nullptr;
  if (O.Workload == "corpus-batch")
    Run = runCorpusBatch;
  else if (O.Workload == "giant-app")
    Run = runGiantApp;
  else if (O.Workload == "serve-edit")
    Run = runServeEdit;
  if (!Run) {
    std::cerr << "nadroid_perfbench: unknown workload '" << O.Workload << "'\n";
    return 2;
  }
  std::filesystem::create_directories(O.WorkDir);

  Tracer T;
  Result R;
  try {
    R = Run(O, T);
  } catch (const std::exception &E) {
    std::cerr << "nadroid_perfbench: " << O.Workload << " failed: " << E.what()
              << "\n";
    return 3;
  }

  std::string Seen = describe(R.In, R.Digest);
  std::cout << "inputs: workload=" << O.Workload << " seed=" << O.Seed << " "
            << Seen << "\n";
  if (const Recorded *Rec = findRecorded(O.Workload, O.Seed)) {
    std::string Want = describe(Rec->In, Rec->Digest);
    if (R.C.expect(Seen == Want, "input descriptors match the recorded ones"))
      std::cout << "inputs: identical to the values recorded for this seed\n";
    else
      std::cout << "inputs: WORKLOAD CHANGED, recorded " << Want
                << "; these times are not comparable\n";
  } else {
    std::cout << "inputs: no recorded values for seed " << O.Seed
              << " (recorded seeds: 99 default, 7 held out)\n";
  }
  for (const std::string &Line : R.Lines)
    std::cout << O.Workload << ": " << Line << "\n";
  std::cout << O.Workload << ": failed_frac "
            << (R.C.Attempted ? double(R.C.Failed) / R.C.Attempted : 1.0)
            << " (" << R.C.Failed << " of " << R.C.Attempted
            << " operations and checks)\n";

  if (O.Trace) {
    R.Metrics.push_back({"input.stmts", double(R.In.Stmts), "count"});
    R.Metrics.push_back({"input.threads", double(R.In.Threads), "count"});
    R.Metrics.push_back({"input.warnings", double(R.In.Warnings), "count"});
    if (!TraceOut.empty()) {
      if (T.writeChromeJson(TraceOut))
        std::cout << "trace: " << T.spans().size() << " spans written to "
                  << TraceOut << "\n";
      else
        std::cerr << "nadroid_perfbench: cannot write " << TraceOut << "\n";
    }
  }

  std::cout << "{\"correct\": " << (R.C.Failed == 0 ? "true" : "false")
            << ", \"attempted\": " << R.C.Attempted
            << ", \"failed\": " << R.C.Failed << ", \"metrics\": {";
  char Buf[256];
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", M.Name.c_str(), M.Value, M.Unit.c_str());
    std::cout << Buf;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
