//===- perfbench/Trace.h - In-memory span recorder ---------------*- C++ -*-===//
//
// Part of the nAdroid reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's traced run records one span around every call it makes
/// into a layer's public API. Spans nest on one thread, carry the span
/// that caused them and a request id, stay in memory while the workload
/// runs, and are written out once at exit as Chrome trace-event JSON
/// (opens in Perfetto or chrome://tracing with nothing to install).
///
/// A span's self time is its duration minus the durations of its direct
/// children; summing self time by span name gives each layer's cost with
/// nothing counted twice.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = -1;
  int64_t Parent = -1;  ///< index of the enclosing span, -1 at the root
  uint64_t Request = 0; ///< spans of one request share this id
  std::string Tag;      ///< free-form outcome label (serve's L1 tag)
};

class Tracer {
public:
  Tracer() : Origin(Clock::now()) {}

  size_t begin(const char *Name);
  void end(size_t Id);
  void tag(size_t Id, std::string Tag) { Spans[Id].Tag = std::move(Tag); }

  /// Every span opened from now on carries \p Id.
  void setRequest(uint64_t Id) { Request = Id; }

  const std::vector<Span> &spans() const { return Spans; }

  /// Summed self time in nanoseconds, keyed by span name.
  std::map<std::string, int64_t> selfTimes() const;

  /// Writes every span as a Chrome trace-event JSON file.
  bool writeChromeJson(const std::string &Path) const;

private:
  Clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<size_t> Open;
  uint64_t Request = 0;
};

/// Opens a span for its lifetime; does nothing when the tracer is null,
/// so one code path serves the traced and the untraced run.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const char *Name) : T(T) {
    if (T)
      Id = T->begin(Name);
  }
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  void tag(std::string Tag) {
    if (T)
      T->tag(Id, std::move(Tag));
  }

private:
  Tracer *T;
  size_t Id = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
