//===- perfbench/GiantWorkload.cpp - giant-app ---------------------------===//
//
// Part of the nAdroid reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
// One corpus::generateRandomApp program of 1024 activities (about 67k
// statements at the default seed), printed to AIR once per set-up. Each
// iteration is a one-shot parse -> analyze -> render of that text, then
// one incremental re-analysis after a neutral body edit through the same
// public calls the serve daemon makes (parse, applyIncrementalEdit,
// invalidateBodyEdit, analyzeProgram, render).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Passes.h"

#include "corpus/RandomApp.h"
#include "frontend/Frontend.h"
#include "frontend/Incremental.h"
#include "ir/Printer.h"
#include "report/Nadroid.h"

#include <sstream>

using namespace perfbench;
using namespace nadroid;

namespace {

constexpr const char *BufferName = "giant.air";

/// Requests \p Plan pass by pass (traced only), then runs the facade and
/// renders the standard report. Fails the check when the facade had to
/// build anything the plan left out.
std::string analyzeAndRender(const std::shared_ptr<pipeline::AnalysisManager> &AM,
                             const ir::Program &P, const PassPlan &Plan,
                             Tracer *T, Checks &C, unsigned &Built) {
  std::map<std::string, uint64_t> Before;
  if (T) {
    Built = requestPlanned(*AM, Plan, T);
    Before = buildCounts(*AM);
  }
  std::ostringstream OS;
  {
    report::NadroidResult R;
    {
      ScopedSpan S(T, "pipeline.facade");
      R = report::analyzeProgram(AM);
    }
    ScopedSpan S(T, "report.render");
    report::renderStandardReport(R, P, /*ShowAll=*/false, /*Explain=*/false,
                                 OS);
  }
  if (T)
    C.expect(builtSince(Before, *AM).empty(),
             "traced giant-app run built passes outside its plan");
  return OS.str();
}

std::string oneShotReport(const std::string &Text) {
  frontend::ParseResult P =
      frontend::parseProgramText(Text, BufferName, "giant");
  report::NadroidResult R = report::analyzeProgram(*P.Prog);
  std::ostringstream OS;
  report::renderStandardReport(R, *P.Prog, false, false, OS);
  return OS.str();
}

} // namespace

Result perfbench::runGiantApp(const Options &O, Tracer &T) {
  Result Res;
  corpus::RandomAppOptions RO;
  RO.Seed = O.Seed;
  RO.Activities = 1024;
  RO.FieldsPerActivity = 3;
  RO.CallbacksPerActivity = 6;
  RO.MaxOpsPerCallback = 5;

  std::string Text, Edited;
  std::vector<double> Setup;
  auto SetUp = [&] {
    auto T0 = Clock::now();
    std::unique_ptr<ir::Program> P = corpus::generateRandomApp(RO);
    std::ostringstream OS;
    ir::printProgram(*P, OS);
    std::string Printed = OS.str();
    std::string Edit = bodyEdit(Printed, O.Seed);
    Setup.push_back(secondsSince(T0));
    Res.C.expect(Text.empty() || (Printed == Text && Edit == Edited),
                 "set-up generates the same program every time");
    Text = std::move(Printed);
    Edited = std::move(Edit);
  };
  for (int I = 0; I < InitialSetups; ++I)
    SetUp();

  std::vector<double> ColdMs, RegraftMs, UntracedIter, TracedIter;
  std::string FirstCold, FirstRegraft;
  PassPlan ColdPlan, RegraftPlan;
  bool HavePlans = false;
  unsigned long long ColdBuilt = 0, RegraftBuilt = 0;

  auto Analyze = [&](Tracer *Tr) {
    std::string ColdText, RegraftText;
    frontend::EditKind Kind = frontend::EditKind::Structural;
    double ColdSec, RegraftSec;
    PassPlan ColdBuiltNow, RegraftBuiltNow;
    // The report is out once rendered; tearing the program and its
    // analyses down afterwards is neither timed nor traced. The manager
    // is declared after the program it points into, so it dies first.
    frontend::ParseResult Resident, Fresh;
    std::shared_ptr<pipeline::AnalysisManager> AM;
    {
      ScopedSpan It(Tr, IterationSpan);
      auto T0 = Clock::now();
      {
        ScopedSpan S(Tr, "frontend.parse");
        Resident = frontend::parseProgramText(Text, BufferName, "giant");
      }
      AM = std::make_shared<pipeline::AnalysisManager>(*Resident.Prog);
      unsigned Built = 0;
      ColdText = analyzeAndRender(AM, *Resident.Prog, ColdPlan, Tr, Res.C,
                                  Built);
      ColdBuilt += Built;
      ColdSec = secondsSince(T0);
      ColdBuiltNow = builtSince({}, *AM);
      if (!HavePlans) {
        // Cache hits: every pass these read was just built.
        Res.In.Apps = 1;
        Res.In.Stmts = Resident.Prog->statementCount();
        Res.In.Threads = AM->forest().threadCount();
        Res.In.Warnings = AM->detection().Warnings.size();
      }
      std::map<std::string, uint64_t> Before = buildCounts(*AM);

      auto T1 = Clock::now();
      {
        ScopedSpan S(Tr, "frontend.parse");
        Fresh = frontend::parseProgramText(Edited, BufferName, "giant");
      }
      frontend::IncrementalEdit Edit;
      {
        ScopedSpan S(Tr, "frontend.incremental");
        Edit = frontend::applyIncrementalEdit(*Resident.Prog, *Fresh.Prog);
      }
      Kind = Edit.Kind;
      if (Kind == frontend::EditKind::BodiesChanged) {
        {
          ScopedSpan S(Tr, "pipeline.invalidate");
          AM->invalidateBodyEdit(Edit.ChangedMethods);
        }
        RegraftText = analyzeAndRender(AM, *Resident.Prog, RegraftPlan, Tr,
                                       Res.C, Built);
        RegraftBuilt += Built;
      }
      RegraftSec = secondsSince(T1);
      RegraftBuiltNow = builtSince(Before, *AM);
    }
    if (!HavePlans) {
      HavePlans = true;
      ColdPlan = ColdBuiltNow;
      RegraftPlan = RegraftBuiltNow;
      FirstCold = ColdText;
      FirstRegraft = RegraftText;
    }
    Res.C.expect(ColdText == FirstCold, "cold report identical run to run");
    Res.C.expect(Kind == frontend::EditKind::BodiesChanged,
                 std::string("body edit reconciled as ") +
                     frontend::editKindName(Kind));
    Res.C.expect(RegraftText == FirstRegraft,
                 "regraft report identical run to run");
    if (!Tr) {
      ColdMs.push_back(ColdSec * 1e3);
      RegraftMs.push_back(RegraftSec * 1e3);
    }
    (Tr ? TracedIter : UntracedIter).push_back(ColdSec + RegraftSec);
  };
  // Set-up runs once Analyze's program and manager are gone.
  unsigned Traced = runLoop(O, 3, T, [&](Tracer *Tr) {
    Analyze(Tr);
    SetUp();
  });

  // Reference checks, outside the timed region: the regrafted program
  // reports exactly what a one-shot run over the edited bytes reports.
  Res.C.expect(FirstRegraft == oneShotReport(Edited),
               "regraft report equals the one-shot report of the edited text");
  Res.Digest = sha256Hex(FirstCold);

  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "giant_analyze_s %.6f s | giant_regraft_s %.6f s | "
                "giant_peak_rss_mb %.1f MB | setup_s %.6f s | iterations %zu",
                median(ColdMs) / 1e3, median(RegraftMs) / 1e3, peakRssMb(),
                median(Setup), ColdMs.size());
  Res.Lines.push_back(Buf);

  Res.Metrics =
      O.Trace ? layerMetrics(T, Traced, median(UntracedIter),
                             median(TracedIter), 0.0,
                             ColdBuilt ? double(RegraftBuilt) / ColdBuilt : 0.0)
              : endToEndMetrics(Setup, ColdMs, RegraftMs, UntracedIter);
  return Res;
}
