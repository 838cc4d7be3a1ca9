//===- perfbench/driver/Trace.h - In-memory spans and counters --*- C++ -*-===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's recorder. Spans wrap the benchmark's own calls into the
/// compiler's public functions (the program itself is not instrumented);
/// each span knows its parent and the op it belongs to. Per-op counter
/// deltas come from the StatisticsRegistry. Everything stays in memory
/// until the run ends and is then written as Chrome trace-event JSON
/// (load it in chrome://tracing or Perfetto).
///
//===----------------------------------------------------------------------===//

#ifndef LSLP_PERFBENCH_TRACE_H
#define LSLP_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since \p Start.
inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Counter values by "component.name", as StatisticsRegistry dumps them.
using Counters = std::map<std::string, uint64_t>;

/// Current value of every registered statistic.
Counters snapshotCounters();

/// \p After minus \p Before, per counter (counters absent from \p Before
/// started at zero). Zero deltas are dropped.
Counters counterDelta(const Counters &Before, const Counters &After);

/// Value of \p Name in \p C, 0 when absent.
uint64_t counterValue(const Counters &C, const std::string &Name);

class Tracer {
public:
  Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Closes the span it opened when destroyed. Spans nest: the innermost
  /// open span is the parent of the next one.
  class Span {
  public:
    Span(Tracer &T, const char *Name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &T;
    size_t Index;
  };

  /// Starts the op with id \p Op: later spans and counters carry it.
  void beginOp(uint64_t Op) { CurrentOp = Op; }

  /// Records one counter sample (per-op deltas) at the current time.
  void recordCounters(const char *Name, const Counters &Values);

  /// Self time (duration minus the time covered by direct children) of
  /// every span, summed by span name, in milliseconds.
  std::map<std::string, double> selfMsByName() const;

  /// Total duration of the spans named \p Name, in milliseconds.
  double totalMs(const std::string &Name) const;

  /// Share of the duration of the spans named \p Name that their direct
  /// children cover.
  double childShare(const std::string &Name) const;

  /// Writes {"traceEvents": [...]}; returns false when the file cannot be
  /// written.
  bool writeChromeJSON(const std::string &Path) const;

private:
  struct Event {
    std::string Name;
    double StartUs = 0;
    double DurUs = 0;
    double ChildUs = 0;
    long Parent = -1;
    uint64_t Op = 0;
  };
  struct Sample {
    std::string Name;
    double TsUs = 0;
    uint64_t Op = 0;
    Counters Values;
  };

  double nowUs() const;

  Clock::time_point Epoch;
  std::vector<Event> Events;
  std::vector<Sample> Samples;
  std::vector<size_t> Open;
  uint64_t CurrentOp = 0;
};

/// A span named \p Name when \p T is set, none otherwise.
inline std::unique_ptr<Tracer::Span> maybeSpan(Tracer *T, const char *Name) {
  return T ? std::make_unique<Tracer::Span>(*T, Name) : nullptr;
}

} // namespace perfbench

#endif // LSLP_PERFBENCH_TRACE_H
