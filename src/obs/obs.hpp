// The observability handle engines carry: a bundle of optional sinks. All
// pointers default to null, and every instrumentation site goes through
// the members or inline helpers below, so a disabled sink compiles down to
// a single test-and-branch (the null sink *is* the fast path — see
// bench/micro_sched.cpp's BM_ObsSpan* and BM_TelemetryPublish* pairs for
// the measured cost).
//
// Each phase and incident is one record — a PhaseSample or a
// TelemetryEvent — emitted by one call, Obs::phase or Obs::incident, which
// writes its trace form (trace.hpp's obs::record) and publishes it.
//
// Recording never alters simulation state, so metrics of a run with
// tracing disabled are bit-identical to a fully instrumented run — a
// property tests/test_obs.cpp locks down.
#pragma once

#include <span>

#include "obs/monitors.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/types.hpp"

namespace rips::obs {

struct Obs {
  TraceSession* trace = nullptr;
  InvariantMonitor* monitor = nullptr;
  TelemetryBus* bus = nullptr;

  /// Emits a system phase, user phase or segment barrier: its machine-track
  /// span (record::kSystemPhase / kUserPhase / kSegmentBarrier), then the
  /// sample on the bus. A user phase of a run with a job map also passes
  /// its per-job executed counts (TelemetrySubscriber::on_job_phase).
  void phase(const PhaseSample& sample,
             std::span<const u64> job_executed = {}) const {
    if (trace != nullptr || bus != nullptr) emit_phase(sample, job_executed);
  }

  /// Emits an incident: a crash instant on the node's track or a recovery
  /// span on the machine track (monitor trips and suspicions have no trace
  /// form), then the event on the bus.
  void incident(const TelemetryEvent& event) const {
    if (trace != nullptr || bus != nullptr) emit_incident(event);
  }

  /// Starts a run: clears the trace and the monitor, then announces the
  /// run to the subscribers.
  void run_begin(const RunStart& run) const;

  /// Ends a run for the subscribers. `last_segment` is the dynamic
  /// engine's tally of its final segment, which no barrier closes: it is
  /// marked by a machine-track record::kRunEnd instant at `makespan` and
  /// published as a segment sample first.
  void run_end(SimTime makespan,
               const PhaseSample* last_segment = nullptr) const;

 private:
  void emit_phase(const PhaseSample& sample,
                  std::span<const u64> job_executed) const;
  void emit_incident(const TelemetryEvent& event) const;
};

/// Null-safe span / instant in a record kind's form (task spans, message
/// send/recv instants).
inline void span(TraceSession* trace, NodeId node, const record::Form& form,
                 SimTime t0, SimTime t1, i64 arg) {
  if (trace != nullptr) trace->span(node, form, t0, t1, arg);
}
inline void instant(TraceSession* trace, NodeId node,
                    const record::Form& form, SimTime t, i64 arg,
                    i64 arg2 = 0) {
  if (trace != nullptr) trace->instant(node, form, t, arg, arg2);
}

}  // namespace rips::obs
