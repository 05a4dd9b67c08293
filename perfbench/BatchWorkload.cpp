//===- perfbench/BatchWorkload.cpp - corpus-batch ------------------------===//
//
// Part of the nAdroid reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
// The 27-app corpus, exported to .air once per set-up. Each iteration is
// one cold `runBatch` pass into a fresh cache directory (analyze + store)
// and one warm pass over the same directory (all hits), with one lane.
//
// The traced half cannot see inside runBatch, so it replays one serial
// runBatch pass from the public calls runBatch itself makes: probe parse,
// canonicalize, cache lookup, and on a miss parse + per-pass requests +
// analyzeProgram + cache store, then renderBatchReport. Its report must
// be byte-identical to the real one.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Passes.h"

#include "cache/ResultCache.h"
#include "corpus/Corpus.h"
#include "corpus/Evaluate.h"
#include "frontend/Frontend.h"
#include "ir/Printer.h"
#include "report/Batch.h"
#include "report/Json.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>

using namespace perfbench;
using namespace nadroid;
namespace fs = std::filesystem;

namespace {

/// One serial runBatch pass over \p Opts rebuilt from public calls, each
/// under its layer's span.
report::BatchResult tracedBatchPass(const report::BatchOptions &Opts,
                                    const std::map<std::string, PassPlan> &Plans,
                                    Tracer &T, Checks &C) {
  ScopedSpan Batch(&T, "report.batch");
  std::vector<fs::path> Files;
  for (const fs::directory_entry &E : fs::directory_iterator(Opts.Dir))
    if (E.is_regular_file() && E.path().extension() == ".air")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end(),
            [](const fs::path &A, const fs::path &B) {
              return A.filename().string() < B.filename().string();
            });

  report::BatchResult R;
  R.Apps.resize(Files.size());
  const std::string Fp = Opts.Pipeline.fingerprint();
  const cache::ResultCache Cache(Opts.CacheDir);
  support::ThreadPool Pool(1);

  for (size_t I = 0; I < Files.size(); ++I) {
    report::BatchApp &Out = R.Apps[I];
    Out.File = Files[I].filename().string();
    Out.OptionsFp = Fp;

    frontend::ParseResult Probe;
    {
      ScopedSpan S(&T, "frontend.parse");
      Probe = frontend::parseProgramFile(Files[I].string());
    }
    std::string Canonical;
    {
      ScopedSpan S(&T, "frontend.canonicalize");
      Canonical = frontend::canonicalProgramBytes(*Probe.Prog);
    }
    std::string Key;
    bool Hit = false;
    {
      ScopedSpan S(&T, "cache.lookup");
      Key = cache::resultCacheKey(Canonical, Fp);
      std::string Entry;
      report::BatchApp Cached;
      Hit = Cache.lookup(Key, Entry) &&
            report::parseAppResult(Entry, cache::SchemaVersion, Cached) &&
            Cached.OptionsFp == Fp && Cached.Status == report::BatchStatus::Ok;
      if (Hit) {
        Out = std::move(Cached);
        Out.File = Files[I].filename().string();
        Out.Name = Probe.Prog->name();
      }
    }
    if (Hit) {
      ++R.CacheHits;
      continue;
    }
    ++R.CacheMisses;

    frontend::ParseResult Parsed;
    {
      ScopedSpan S(&T, "frontend.parse");
      Parsed = frontend::parseProgramFile(Files[I].string());
    }
    auto AM = std::make_shared<pipeline::AnalysisManager>(*Parsed.Prog,
                                                          Opts.Pipeline);
    AM->setThreadPool(&Pool);
    auto Plan = Plans.find(Out.File);
    requestPlanned(*AM, Plan == Plans.end() ? PassPlan() : Plan->second, &T);
    std::map<std::string, uint64_t> Before = buildCounts(*AM);
    report::NadroidResult NR;
    {
      ScopedSpan S(&T, "pipeline.facade");
      NR = report::analyzeProgram(AM);
    }
    C.expect(builtSince(Before, *AM).empty(),
             "traced batch pass built passes outside its plan for " + Out.File);
    Out.Name = Parsed.Prog->name();
    Out.Status = report::BatchStatus::Ok;
    Out.RssTrusted = true;
    Out.Stmts = Parsed.Prog->statementCount();
    Out.EntryCallbacks = NR.Forest->entryCallbackCount();
    Out.PostedCallbacks = NR.Forest->postedCallbackCount();
    Out.Threads = NR.Forest->threadCount();
    Out.Potential = static_cast<unsigned>(NR.warnings().size());
    Out.AfterSound = NR.Pipeline.RemainingAfterSound;
    Out.AfterUnsound = NR.Pipeline.RemainingAfterUnsound;
    Out.Timings = NR.Timings;
    Out.Analyses = AM->passStats();
    {
      ScopedSpan S(&T, "cache.store");
      if (Cache.store(Key, report::renderAppResult(Out, cache::SchemaVersion)))
        ++R.CacheStores;
    }
  }
  R.CacheEnabled = true;
  return R;
}

/// Ground truth for one exported app: every remaining warning belongs to
/// a seeded bug, and every seeded harmful UAF remains.
bool matchesGroundTruth(const corpus::CorpusApp &App, const std::string &Path,
                        const report::BatchApp &Row, std::string &Why) {
  frontend::ParseResult P = frontend::parseProgramFile(Path);
  if (!P.Success) {
    Why = "does not parse";
    return false;
  }
  report::NadroidResult R = report::analyzeProgram(*P.Prog);
  std::set<std::string> Remaining;
  for (size_t I : R.remainingIndices()) {
    const std::string Field = R.warnings()[I].F->qualifiedName();
    if (!corpus::findSeed(App, Field)) {
      Why = "unattributed remaining warning on " + Field;
      return false;
    }
    Remaining.insert(Field);
  }
  for (const corpus::SeededBug &S : App.Seeds)
    if (S.Kind == corpus::SeedKind::HarmfulUaf &&
        !Remaining.count(S.FieldName)) {
      Why = "seeded harmful UAF on " + S.FieldName + " was filtered";
      return false;
    }
  if (R.warnings().size() != Row.Potential ||
      R.Pipeline.RemainingAfterSound != Row.AfterSound ||
      R.Pipeline.RemainingAfterUnsound != Row.AfterUnsound) {
    Why = "batch row disagrees with a one-shot analysis";
    return false;
  }
  return true;
}

} // namespace

Result perfbench::runCorpusBatch(const Options &O, Tracer &T) {
  Result Res;
  const fs::path Root(O.WorkDir);
  const fs::path CorpusDir = Root / "corpus";

  std::vector<corpus::CorpusApp> Apps;
  std::vector<double> Setup;
  auto SetUp = [&] {
    auto T0 = Clock::now();
    fs::remove_all(CorpusDir);
    fs::create_directories(CorpusDir);
    Apps = corpus::buildCorpus();
    for (const corpus::CorpusApp &A : Apps) {
      std::ofstream Out(CorpusDir / (A.Name + ".air"));
      ir::printProgram(*A.Prog, Out);
    }
    Setup.push_back(secondsSince(T0));
  };
  for (int I = 0; I < InitialSetups; ++I)
    SetUp();

  report::BatchOptions BO;
  BO.Dir = CorpusDir.string();
  BO.Jobs = 1;

  std::vector<double> ColdMs, WarmMs, UntracedPass, TracedPass;
  std::string FirstReport;
  report::BatchResult FirstCold;
  std::map<std::string, PassPlan> Plans;
  unsigned long long Probes = 0, Hits = 0;
  const fs::path CacheDir = Root / "cache";
  BO.CacheDir = CacheDir.string();

  auto Iteration = [&](Tracer *Tr) {
    fs::remove_all(CacheDir); // every cold pass starts from an empty cache
    report::BatchResult Cold, Warm;
    std::string ColdText, WarmText;
    double ColdSec, WarmSec;
    {
      ScopedSpan It(Tr, IterationSpan);
      auto T0 = Clock::now();
      if (Tr)
        Cold = tracedBatchPass(BO, Plans, *Tr, Res.C);
      else
        Cold = report::runBatch(BO);
      {
        ScopedSpan S(Tr, "report.render");
        ColdText = report::renderBatchReport(Cold);
      }
      ColdSec = secondsSince(T0);
      auto T1 = Clock::now();
      if (Tr)
        Warm = tracedBatchPass(BO, Plans, *Tr, Res.C);
      else
        Warm = report::runBatch(BO);
      {
        ScopedSpan S(Tr, "report.render");
        WarmText = report::renderBatchReport(Warm);
      }
      WarmSec = secondsSince(T1);
    }
    fs::remove_all(CacheDir);
    SetUp();

    if (FirstReport.empty()) {
      FirstReport = ColdText;
      FirstCold = Cold;
      for (const report::BatchApp &A : Cold.Apps)
        for (const pipeline::PassStat &S : A.Analyses)
          if (S.Builds > 0)
            Plans[A.File].insert(S.Name);
    }
    bool AllOk = !Cold.Apps.empty();
    for (const report::BatchApp &A : Cold.Apps)
      AllOk &= A.Status == report::BatchStatus::Ok;
    Res.C.expect(AllOk && Cold.CacheStores == Cold.Apps.size(),
                 "cold pass: every app analyzed ok and stored");
    Res.C.expect(Warm.CacheHits == Cold.Apps.size() && Warm.CacheMisses == 0,
                 "warm pass: every app a cache hit");
    Res.C.expect(ColdText == FirstReport && WarmText == FirstReport,
                 "cold and warm reports byte-identical to the first pass");
    if (Tr) {
      for (const report::BatchResult *P : {&Cold, &Warm}) {
        Probes += P->CacheHits + P->CacheMisses;
        Hits += P->CacheHits;
      }
    } else {
      ColdMs.push_back(ColdSec * 1e3);
      WarmMs.push_back(WarmSec * 1e3);
    }
    (Tr ? TracedPass : UntracedPass).push_back(ColdSec + WarmSec);
  };
  unsigned Traced = runLoop(O, 3, T, Iteration);

  // Reference checks, outside the timed region.
  for (const corpus::CorpusApp &A : Apps) {
    const std::string File = A.Name + ".air";
    auto Row = std::find_if(
        FirstCold.Apps.begin(), FirstCold.Apps.end(),
        [&](const report::BatchApp &R) { return R.File == File; });
    std::string Why = "missing from the batch";
    Res.C.expect(Row != FirstCold.Apps.end() &&
                     matchesGroundTruth(A, (CorpusDir / File).string(), *Row,
                                        Why),
                 "ground truth for " + A.Name + ": " + Why);
  }

  Res.In.Apps = static_cast<unsigned>(FirstCold.Apps.size());
  for (const report::BatchApp &A : FirstCold.Apps) {
    Res.In.Stmts += A.Stmts;
    Res.In.Threads += A.Threads;
    Res.In.Warnings += A.Potential;
  }
  Res.Digest = sha256Hex(FirstReport);

  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "batch_cold_s %.6f s | batch_warm_s %.6f s | setup_s %.6f s | "
                "passes %zu",
                median(ColdMs) / 1e3, median(WarmMs) / 1e3, median(Setup),
                ColdMs.size());
  Res.Lines.push_back(Buf);

  Res.Metrics =
      O.Trace ? layerMetrics(T, Traced, median(UntracedPass),
                             median(TracedPass),
                             Probes ? double(Hits) / Probes : 0.0, 0.0)
              : endToEndMetrics(Setup, ColdMs, WarmMs, UntracedPass);
  return Res;
}
