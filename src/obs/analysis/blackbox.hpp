// Black-box analysis (docs/OBSERVABILITY.md, "Flight recorder").
//
// Reads any rips-timeseries-v1 document — a FlightRecorder dump (the ring
// of recent phase samples and telemetry events, written when a fault
// fires, an invariant monitor trips, or the process dies) or a full
// sampler export — and attributes every recorded event to the phase
// sample whose [t0, t1] window contains it. `trace_tool blackbox <file>`
// is the CLI over this.
#pragma once

#include <string>
#include <vector>

#include "obs/analysis/bench_diff.hpp"
#include "obs/telemetry.hpp"

namespace rips::obs::analysis {

/// One event attributed to the phase window that contains it.
struct Attribution {
  const TelemetryEvent* event = nullptr;
  /// Index into series.samples of the covering phase, or npos when the
  /// event falls outside every recorded window (ring overwrote the phase).
  static constexpr size_t kNoPhase = static_cast<size_t>(-1);
  size_t sample_index = kNoPhase;
};

/// Attributes every event of `series` to the phase sample whose [t0, t1]
/// contains its time (ties broken toward the latest matching phase — the
/// one that was live when the event fired). Per-job rows (job >= 0)
/// repeat their phase's window and are skipped. Order follows
/// series.events.
std::vector<Attribution> attribute_events(const Series& series);

/// Human-readable post-mortem: the dump reason, then per series its
/// header, the attributed event list, and the last few phases it kept.
std::string blackbox_report(const TimeSeriesDoc& doc);

}  // namespace rips::obs::analysis
