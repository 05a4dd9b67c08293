//===- perfbench/Passes.cpp - Per-pass requests from outside --------------===//
//
// Part of the nAdroid reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "Passes.h"

using namespace perfbench;
using namespace nadroid::pipeline;

namespace {

struct PassRequest {
  const char *Name; ///< PassT::Name, as passStats() and serve's built= list
  const char *Span; ///< the layer span the build is charged to
  bool (*Cached)(const AnalysisManager &);
  void (*Get)(AnalysisManager &);
};

template <typename PassT> PassRequest request(const char *Span) {
  return {PassT::Name, Span,
          [](const AnalysisManager &AM) { return AM.isCached<PassT>(); },
          [](AnalysisManager &AM) { (void)AM.getMutable<PassT>(); }};
}

/// Dependency order: each pass comes after everything its run() requests,
/// so requesting them in this order builds exactly one pass per request.
/// The four per-method caches are empty shells until a consumer fills
/// them; they belong to the filter context that owns them.
const std::vector<PassRequest> &passOrder() {
  static const std::vector<PassRequest> Order = {
      request<ApiIndexPass>("android.apiindex"),
      request<ThreadForestPass>("threadify.forest"),
      request<PointsToPass>("analysis.pointsto"),
      request<ThreadReachPass>("analysis.threadreach"),
      request<DetectionPass>("race.detection"),
      request<LocksetPass>("analysis.lockset"),
      request<HbQueryPass>("analysis.hbquery"),
      request<CancelReachPass>("analysis.cancelreach"),
      request<CfgCachePass>("filters.context"),
      request<GuardCachePass>("filters.context"),
      request<AllocFlowCachePass>("filters.context"),
      request<ConsumersCachePass>("filters.context"),
      request<NullnessPass>("analysis.nullness"),
      request<EscapePass>("analysis.escape"),
      request<HbRefuterPass>("analysis.hbrefuter"),
      request<HistoryRefuterPass>("analysis.historyrefuter"),
      request<TypestatePass>("analysis.typestate"),
      request<FilterContextPass>("filters.context"),
      request<FilterEnginePass>("filters.verdicts"),
      request<VerdictsPass>("filters.verdicts"),
  };
  return Order;
}

} // namespace

std::map<std::string, uint64_t>
perfbench::buildCounts(const AnalysisManager &AM) {
  std::map<std::string, uint64_t> Counts;
  for (const PassStat &S : AM.passStats())
    Counts[S.Name] = S.Builds;
  return Counts;
}

PassPlan perfbench::builtSince(const std::map<std::string, uint64_t> &Before,
                               const AnalysisManager &AM) {
  PassPlan Built;
  for (const PassStat &S : AM.passStats()) {
    auto It = Before.find(S.Name);
    if (S.Builds > (It == Before.end() ? 0 : It->second))
      Built.insert(S.Name);
  }
  return Built;
}

unsigned perfbench::requestPlanned(AnalysisManager &AM, const PassPlan &Plan,
                                   Tracer *T) {
  unsigned Built = 0;
  for (const PassRequest &R : passOrder()) {
    if (!Plan.count(R.Name))
      continue;
    Built += R.Cached(AM) ? 0 : 1;
    ScopedSpan S(T, R.Span);
    R.Get(AM);
  }
  return Built;
}

const std::vector<const char *> &perfbench::layerSpanNames() {
  static const std::vector<const char *> Names = {
      "frontend.parse",        "frontend.canonicalize",
      "frontend.incremental",  "cache.lookup",
      "cache.store",           "pipeline.invalidate",
      "pipeline.facade",       "android.apiindex",
      "threadify.forest",      "analysis.pointsto",
      "analysis.threadreach",  "race.detection",
      "analysis.hbquery",      "analysis.escape",
      "analysis.lockset",      "analysis.cancelreach",
      "analysis.nullness",     "analysis.typestate",
      "analysis.hbrefuter",    "analysis.historyrefuter",
      "filters.context",       "filters.verdicts",
      "report.batch",          "report.lint",
      "report.render",         "serve.handle",
  };
  return Names;
}
