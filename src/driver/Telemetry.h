//===- driver/Telemetry.h - Batch span timeline -----------------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thread-safe timeline of wall-clock spans for the batch-compilation
/// driver. Combinatorial allocation pipelines are compile-time-heavy and
/// heterogeneous (a few functions dominate), so every scaling experiment
/// needs to see *where* the time goes, per stage and per function, not
/// just end-to-end totals.
///
/// Counters live in MetricsRegistry (driver/Metrics.h, `--metrics-out`);
/// this class only keeps spans. `stageStats` aggregates them for the
/// batch tools' stage table, and `writeChromeTrace` exports them through
/// ChromeTraceWriter (driver/Trace.h) in the Chrome `trace_event` format,
/// loadable in `chrome://tracing` or https://ui.perfetto.dev.
///
/// All mutation is mutex-protected; spans may be recorded concurrently
/// from every pool worker. Timestamps are microseconds relative to the
/// Telemetry object's construction (steady clock).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_DRIVER_TELEMETRY_H
#define DRA_DRIVER_TELEMETRY_H

#include "driver/Trace.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace dra {

/// One completed span on the shared timeline.
struct TraceSpan {
  std::string Name;        // e.g. "alloc", or the function name for tasks
  const char *Category;    // "stage" | "task" | caller-defined
  uint64_t BeginUs = 0;    // relative to Telemetry construction
  uint64_t DurUs = 0;
  unsigned Tid = 0;        // pool worker id
  /// The recording thread's OS tid; recordSpan fills it in when 0. The
  /// Chrome export keys rows by this (machine-unique) id so a merged
  /// multi-process trace never collapses two workers onto one row; the
  /// pool worker id stays the display name.
  uint64_t OsTid = 0;
  /// Annotations shown in the trace viewer's detail pane (e.g. spills,
  /// set_last_regs for a task span).
  std::vector<TraceArg> Args;
};

class Telemetry {
public:
  Telemetry();

  /// Microseconds elapsed since construction (steady clock).
  uint64_t nowUs() const;

  /// Converts an absolute steady-clock nanosecond stamp (as recorded in
  /// PipelineResult::Spans) to this object's relative microseconds.
  /// Clamps to 0 for stamps predating construction.
  uint64_t toRelativeUs(uint64_t SteadyNs) const;

  /// steadyClockNs() under its historical name, kept for callers that
  /// only include this header.
  static uint64_t steadyNowNs();

  void recordSpan(TraceSpan E);

  /// Snapshot of every recorded span (copied under the lock).
  std::vector<TraceSpan> events() const;

  /// Aggregate of all spans sharing one name.
  struct StageStats {
    size_t Count = 0;
    uint64_t TotalUs = 0;
    uint64_t MinUs = 0;
    uint64_t MaxUs = 0;
  };
  /// When \p Category is non-null, only spans with that category are
  /// aggregated (e.g. "stage" to exclude the per-function task spans).
  std::map<std::string, StageStats>
  stageStats(const char *Category = nullptr) const;

  /// Sets the `process_name` metadata of the Chrome export (default
  /// "dra"); tools pass their own name so merged traces label processes.
  void setProcessName(std::string Name);

  /// Writes Chrome trace-event JSON: `process_name`/`thread_name` ("M")
  /// metadata, then one complete ("ph":"X") event per recorded span.
  /// Events carry the real pid and OS tids.
  void writeChromeTrace(std::ostream &OS) const;

private:
  uint64_t OriginNs = 0;
  mutable std::mutex Mtx;
  std::vector<TraceSpan> Events;
  std::string ProcessName = "dra";
};

} // namespace dra

#endif // DRA_DRIVER_TELEMETRY_H
