//===- perfbench/ServeWorkload.cpp - serve-edit --------------------------===//
//
// Part of the nAdroid reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
// An in-process serve::Server (default 8 sessions, one pool lane, no L2)
// cycling through all 27 corpus apps, so the session table evicts. For
// each app, in Table 1 order, one IDE client sends seven requests and
// waits for each reply:
//
//   1. analyze                      (new session)
//   2. analyze, file unchanged      (L1 hit)
//   3. analyze, formatting edit     (rebase)
//   4. analyze, neutral body edit   (regraft)
//   5. lint                         (L1 hit; builds typestate)
//   6. analyze --refute-v2          (L1 hit; builds both refuter tiers)
//   7. analyze, body edit reverted  (regraft)
//
// The traced half replays Server::handle from the public calls it makes
// (serve::parseRequest, SessionTable, parseProgramText,
// applyIncrementalEdit, invalidateBodyEdit, per-pass requests, the
// analyze/lint facades and renderers), one serve.handle span per request.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Passes.h"

#include "corpus/Corpus.h"
#include "frontend/Frontend.h"
#include "frontend/Incremental.h"
#include "ir/Printer.h"
#include "report/Lint.h"
#include "report/Nadroid.h"
#include "serve/Server.h"

#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>

using namespace perfbench;
using namespace nadroid;
namespace fs = std::filesystem;

namespace {

constexpr unsigned Sessions = 8;

/// One of the seven requests of an app's edit loop.
struct Step {
  const char *Verb;  ///< request line before the path
  const char *Flags; ///< request line after the path
  int Write;         ///< text written before the request: -1 none, else a Variant
  const char *L1;    ///< the session-table outcome the request must report
};

enum Variant { Original, Formatted, BodyEdited };

constexpr Step Steps[] = {
    {"analyze", "", Original, "new"},
    {"analyze", "", -1, "hit"},
    {"analyze", "", Formatted, "rebase"},
    {"analyze", "", BodyEdited, "regraft"},
    {"lint", "", -1, "hit"},
    {"analyze", " --refute-v2", -1, "hit"},
    {"analyze", "", Formatted, "regraft"},
};
constexpr size_t NumSteps = sizeof(Steps) / sizeof(Steps[0]);

/// The bytes on disk when step \p S is sent.
Variant bytesAt(size_t S) {
  int V = Original;
  for (size_t I = 0; I <= S; ++I)
    if (Steps[I].Write >= 0)
      V = Steps[I].Write;
  return static_cast<Variant>(V);
}

bool isRegraft(size_t S) { return std::string_view(Steps[S].L1) == "regraft"; }

struct App {
  std::string Name;
  std::string Path;
  std::string Text[3]; ///< indexed by Variant
};

std::string stemOf(const std::string &Path) {
  return fs::path(Path).stem().string();
}

/// Server::handleAnalysis, rebuilt from public calls. L2 is off, as in
/// the untraced server, so the cache branch is absent.
serve::Response mirrorHandle(const std::string &Line, serve::SessionTable &Table,
                             support::ThreadPool &Pool, const PassPlan &Plan,
                             Tracer &T, Checks &C, unsigned &Built) {
  ScopedSpan Handle(&T, "serve.handle");
  serve::Response R;
  serve::Request Q;
  std::string Error;
  if (!serve::parseRequest(Line, Q, Error)) {
    R.Ok = false;
    R.Err = Error;
    return R;
  }
  std::shared_ptr<serve::Session> S = Table.acquire(Q.Path);
  std::lock_guard<std::mutex> Lock(S->Mu);
  std::string Raw = readFile(Q.Path);
  if (S->Prog && Raw == S->RawBytes) {
    R.L1 = "hit";
  } else {
    frontend::ParseResult Fresh;
    {
      ScopedSpan P(&T, "frontend.parse");
      Fresh = frontend::parseProgramText(Raw, Q.Path, stemOf(Q.Path));
    }
    if (!S->Prog) {
      S->Prog = std::move(Fresh.Prog);
      S->AM = std::make_shared<pipeline::AnalysisManager>(*S->Prog, Q.Pipeline);
      S->AM->setThreadPool(&Pool);
      R.L1 = "new";
    } else {
      frontend::IncrementalEdit Edit;
      {
        ScopedSpan P(&T, "frontend.incremental");
        Edit = frontend::applyIncrementalEdit(*S->Prog, *Fresh.Prog);
      }
      if (Edit.Kind == frontend::EditKind::FormattingOnly) {
        R.L1 = "rebase";
      } else if (Edit.Kind == frontend::EditKind::BodiesChanged) {
        ScopedSpan P(&T, "pipeline.invalidate");
        S->AM->invalidateBodyEdit(Edit.ChangedMethods);
        R.L1 = "regraft";
      } else {
        S->Prog = std::move(Fresh.Prog);
        S->AM =
            std::make_shared<pipeline::AnalysisManager>(*S->Prog, Q.Pipeline);
        S->AM->setThreadPool(&Pool);
        R.L1 = "swap";
      }
    }
    S->RawBytes = std::move(Raw);
  }
  Handle.tag(R.L1);
  {
    // Option-directed invalidation: the same drop-and-rebuild contract
    // as a body edit, driven by the request's flags.
    ScopedSpan P(&T, "pipeline.invalidate");
    S->AM->setOptions(Q.Pipeline);
  }
  Built = requestPlanned(*S->AM, Plan, &T);
  std::map<std::string, uint64_t> Before = buildCounts(*S->AM);
  std::ostringstream OS;
  if (Q.V == serve::Verb::Lint) {
    report::LintResult L;
    {
      ScopedSpan P(&T, "report.lint");
      L = report::runLintChecks(*S->AM);
    }
    ScopedSpan P(&T, "report.render");
    report::renderLintReport(*S->Prog, L, Q.Json, Q.Explain, OS);
    R.Exit = L.empty() ? 0 : 6;
  } else {
    report::NadroidResult NR;
    {
      ScopedSpan P(&T, "pipeline.facade");
      NR = report::analyzeProgram(S->AM);
    }
    ScopedSpan P(&T, "report.render");
    report::renderStandardReport(NR, *S->Prog, Q.ShowAll, Q.Explain, OS);
    R.Exit = NR.Pipeline.RemainingAfterUnsound == 0 ? 0 : 1;
  }
  R.Out = OS.str();
  C.expect(builtSince(Before, *S->AM).empty(),
           "traced request built passes outside its plan: " + Line);
  return R;
}

/// What the one-shot CLI prints for step \p S of \p A: a fresh parse of
/// the same bytes, a fresh manager, the same facade and renderer.
serve::Response oneShot(const App &A, size_t S, Inputs *Count) {
  serve::Request Q;
  std::string Error;
  serve::parseRequest(std::string(Steps[S].Verb) + " " + A.Path +
                          Steps[S].Flags,
                      Q, Error);
  frontend::ParseResult P = frontend::parseProgramText(
      A.Text[bytesAt(S)], A.Path, stemOf(A.Path));
  auto AM = std::make_shared<pipeline::AnalysisManager>(*P.Prog, Q.Pipeline);
  serve::Response R;
  std::ostringstream OS;
  if (Q.V == serve::Verb::Lint) {
    report::LintResult L = report::runLintChecks(*AM);
    report::renderLintReport(*P.Prog, L, Q.Json, Q.Explain, OS);
    R.Exit = L.empty() ? 0 : 6;
  } else {
    report::NadroidResult NR = report::analyzeProgram(AM);
    report::renderStandardReport(NR, *P.Prog, Q.ShowAll, Q.Explain, OS);
    R.Exit = NR.Pipeline.RemainingAfterUnsound == 0 ? 0 : 1;
    if (Count) {
      Count->Stmts += P.Prog->statementCount();
      Count->Threads += NR.Forest->threadCount();
      Count->Warnings += NR.warnings().size();
    }
  }
  R.Out = OS.str();
  return R;
}

} // namespace

Result perfbench::runServeEdit(const Options &O, Tracer &T) {
  Result Res;
  const fs::path Dir = fs::path(O.WorkDir) / "serve";

  std::vector<App> Apps;
  std::vector<double> Setup;
  auto SetUp = [&] {
    auto T0 = Clock::now();
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    std::vector<App> Staged;
    std::vector<corpus::CorpusApp> Corpus = corpus::buildCorpus();
    for (size_t K = 0; K < Corpus.size(); ++K) {
      App A;
      A.Name = Corpus[K].Name;
      A.Path = (Dir / (A.Name + ".air")).string();
      std::ostringstream OS;
      ir::printProgram(*Corpus[K].Prog, OS);
      A.Text[Original] = OS.str();
      A.Text[Formatted] = formattingEdit(A.Text[Original]);
      // The edited method depends on the seed and the app's place in
      // Table 1 order.
      A.Text[BodyEdited] = bodyEdit(A.Text[Formatted], O.Seed * 1000003 + K);
      writeFile(A.Path, A.Text[Original]);
      Staged.push_back(std::move(A));
    }
    // Apps are visited in Table 1 order whatever the seed. A seeded
    // order, even a mere rotation, changes the allocator's fragmentation
    // history, and peak residency then moved by ~10% from seed to seed.
    Setup.push_back(secondsSince(T0));
    bool Same = Apps.empty() || Apps.size() == Staged.size();
    for (size_t A = 0; Same && !Apps.empty() && A < Apps.size(); ++A)
      for (int V : {Original, Formatted, BodyEdited})
        Same &= Apps[A].Path == Staged[A].Path &&
                Apps[A].Text[V] == Staged[A].Text[V];
    Res.C.expect(Same, "set-up stages the same inputs every time");
    Apps = std::move(Staged);
  };
  for (int I = 0; I < InitialSetups; ++I)
    SetUp();

  serve::ServerOptions SO;
  SO.Jobs = 1;
  SO.MaxSessions = Sessions;
  serve::Server Server(SO);
  serve::SessionTable MirrorTable(Sessions);
  support::ThreadPool MirrorPool(1);

  // First response per (app, step): later passes must repeat it byte for
  // byte, and the reference check compares it with a one-shot run.
  std::vector<std::vector<serve::Response>> First(Apps.size());
  std::vector<std::vector<PassPlan>> Plans(Apps.size(),
                                           std::vector<PassPlan>(NumSteps));
  std::vector<double> NewMs, RegraftMs, UntracedPass, TracedPass;
  unsigned long long NewBuilt = 0, NewCount = 0, RegraftBuilt = 0,
                     RegraftCount = 0;
  uint64_t RequestId = 0;

  auto Iteration = [&](Tracer *Tr) {
    std::vector<serve::Response> Got;
    std::vector<double> Ms;
    std::vector<unsigned> Built;
    Got.reserve(Apps.size() * NumSteps);
    double PassSec;
    {
      ScopedSpan It(Tr, IterationSpan);
      auto T0 = Clock::now();
      for (size_t A = 0; A < Apps.size(); ++A)
        for (size_t S = 0; S < NumSteps; ++S) {
          if (Steps[S].Write >= 0)
            writeFile(Apps[A].Path, Apps[A].Text[Steps[S].Write]);
          std::string Line =
              std::string(Steps[S].Verb) + " " + Apps[A].Path + Steps[S].Flags;
          unsigned B = 0;
          auto R0 = Clock::now();
          if (Tr) {
            Tr->setRequest(++RequestId);
            Got.push_back(mirrorHandle(Line, MirrorTable, MirrorPool,
                                       Plans[A][S], *Tr, Res.C, B));
          } else {
            Got.push_back(Server.handle(Line));
          }
          Ms.push_back(secondsSince(R0) * 1e3);
          Built.push_back(B);
        }
      PassSec = secondsSince(T0);
    }
    (Tr ? TracedPass : UntracedPass).push_back(PassSec);
    SetUp();

    for (size_t A = 0; A < Apps.size(); ++A)
      for (size_t S = 0; S < NumSteps; ++S) {
        size_t I = A * NumSteps + S;
        const serve::Response &R = Got[I];
        if (First[A].size() < NumSteps) {
          First[A].push_back(R);
          for (const std::string &P : R.Built)
            Plans[A][S].insert(P);
        }
        const serve::Response &F = First[A][S];
        Res.C.expect(R.Ok && R.Err.empty() && R.L1 == Steps[S].L1 &&
                         R.Out == F.Out && R.Exit == F.Exit,
                     Apps[A].Name + " step " + std::to_string(S + 1) +
                         ": l1=" + R.L1 + " (want " + Steps[S].L1 +
                         "), output identical to the first pass");
        if (Tr) {
          if (S == 0) {
            NewBuilt += Built[I];
            ++NewCount;
          } else if (isRegraft(S)) {
            RegraftBuilt += Built[I];
            ++RegraftCount;
          }
        } else if (S == 0) {
          NewMs.push_back(Ms[I]);
        } else if (isRegraft(S)) {
          RegraftMs.push_back(Ms[I]);
        }
      }
  };
  unsigned Traced = runLoop(O, 2, T, Iteration);

  // Reference checks, outside the timed region.
  Res.In.Apps = static_cast<unsigned>(Apps.size());
  Res.In.Sessions = Sessions;
  Res.In.WorkingSet = static_cast<unsigned>(Apps.size());
  std::map<std::string, std::string> RefByApp; // digest order: by name
  for (size_t A = 0; A < Apps.size(); ++A) {
    // Steps sending the same bytes with the same request share one
    // reference run.
    std::map<std::pair<Variant, std::string>, serve::Response> Refs;
    for (size_t S = 0; S < NumSteps; ++S) {
      auto Key = std::make_pair(bytesAt(S), std::string(Steps[S].Verb) +
                                                Steps[S].Flags);
      auto It = Refs.find(Key);
      if (It == Refs.end())
        It = Refs.emplace(Key, oneShot(Apps[A], S, S == 0 ? &Res.In : nullptr))
                 .first;
      const serve::Response &Ref = It->second;
      RefByApp[Apps[A].Name] += Ref.Out;
      Res.C.expect(First[A][S].Out == Ref.Out && First[A][S].Exit == Ref.Exit,
                   Apps[A].Name + " step " + std::to_string(S + 1) +
                       ": response equals the one-shot run of the same bytes");
    }
  }
  std::string AllRef;
  for (const auto &[Name, Out] : RefByApp)
    AllRef += Out;
  Res.Digest = sha256Hex(AllRef);

  size_t N = RegraftMs.size();
  char Buf[240];
  std::snprintf(Buf, sizeof(Buf),
                "edit_p50_ms %.4f ms | edit_p90_ms %.4f ms (%zu regrafts, %zu "
                "beyond p90) | new_p50_ms %.4f ms | serve_pass_s %.6f s | "
                "setup_s %.6f s",
                median(RegraftMs), quantile(RegraftMs, 0.9), N,
                N - static_cast<size_t>(std::ceil(0.9 * N)), median(NewMs),
                median(UntracedPass), median(Setup));
  Res.Lines.push_back(Buf);

  double RebuildRatio =
      NewBuilt && RegraftCount
          ? (double(RegraftBuilt) / RegraftCount) / (double(NewBuilt) / NewCount)
          : 0.0;
  Res.Metrics = O.Trace ? layerMetrics(T, Traced, median(UntracedPass),
                                       median(TracedPass), 0.0, RebuildRatio)
                        : endToEndMetrics(Setup, NewMs, RegraftMs, UntracedPass);
  return Res;
}
