//===- perfbench/Passes.h - Per-pass requests from outside -------*- C++ -*-===//
//
// Part of the nAdroid reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run cannot look inside report::analyzeProgram, so it asks
/// the AnalysisManager for each pass itself, in dependency order, one
/// span per request. Every dependency is already built when a pass is
/// requested, so a span's duration is that pass's own build time; lazily
/// built passes (nullness above all) get a span of their own instead of
/// being charged to whichever filter touched them first.
///
/// Only the passes the untraced run built are requested (the plan), so
/// the traced run does the same work; the facade call that follows must
/// then build nothing, which the caller checks.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PASSES_H
#define PERFBENCH_PASSES_H

#include "Trace.h"

#include "pipeline/AnalysisManager.h"

#include <map>
#include <set>
#include <string>

namespace perfbench {

/// Pass names (PassT::Name) one request built.
using PassPlan = std::set<std::string>;

/// Build counts of every pass the manager has touched, by name.
std::map<std::string, uint64_t>
buildCounts(const nadroid::pipeline::AnalysisManager &AM);

/// The passes whose build count grew since \p Before.
PassPlan builtSince(const std::map<std::string, uint64_t> &Before,
                    const nadroid::pipeline::AnalysisManager &AM);

/// Requests every pass in \p Plan in dependency order, each under a span
/// named after its layer. Returns how many were not yet cached (read via
/// isCached before each request), i.e. how many it built.
unsigned requestPlanned(nadroid::pipeline::AnalysisManager &AM,
                        const PassPlan &Plan, Tracer *T);

/// Every span name a layer reports under, in the order the benchmark
/// prints them (without the "_ms" suffix of the metric).
const std::vector<const char *> &layerSpanNames();

} // namespace perfbench

#endif // PERFBENCH_PASSES_H
