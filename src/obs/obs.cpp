#include "obs/obs.hpp"

namespace rips::obs {

void Obs::emit_phase(const PhaseSample& sample,
                     std::span<const u64> job_executed) const {
  if (trace != nullptr) {
    // A segment barrier carries the segment it releases; system and user
    // phases carry their task counts.
    const bool segment = sample.kind == PhaseKind::kSegment;
    const record::Form& form = segment ? record::kSegmentBarrier
                               : sample.kind == PhaseKind::kSystem
                                   ? record::kSystemPhase
                                   : record::kUserPhase;
    trace->span(kInvalidNode, form, sample.t0, sample.t1,
                static_cast<i64>(segment ? sample.phase : sample.tasks));
  }
  if (bus != nullptr) bus->publish(sample, job_executed);
}

void Obs::emit_incident(const TelemetryEvent& event) const {
  if (trace != nullptr) {
    if (event.kind == TelemetryEvent::Kind::kCrash) {
      trace->instant(event.node, record::kCrash, event.t, event.arg);
    } else if (event.kind == TelemetryEvent::Kind::kRecovery) {
      trace->span(kInvalidNode, record::kRecovery, event.t,
                  event.t + event.dur_ns, event.arg);
    }
  }
  if (bus != nullptr) bus->publish(event);
}

void Obs::run_begin(const RunStart& run) const {
  if (trace != nullptr) trace->clear();
  if (monitor != nullptr) monitor->clear();
  if (bus != nullptr) bus->publish_run_begin(run);
}

void Obs::run_end(SimTime makespan, const PhaseSample* last_segment) const {
  if (last_segment != nullptr) {
    if (trace != nullptr) {
      trace->instant(kInvalidNode, record::kRunEnd, makespan, makespan);
    }
    if (bus != nullptr) bus->publish(*last_segment);
  }
  if (bus != nullptr) bus->publish_run_end(makespan);
}

}  // namespace rips::obs
