#include "obs/telemetry.hpp"

#include <algorithm>

namespace rips::obs {

TelemetrySubscriber::~TelemetrySubscriber() = default;

void TelemetryBus::subscribe(TelemetrySubscriber* subscriber) {
  if (subscriber == nullptr) return;
  if (std::find(subscribers_.begin(), subscribers_.end(), subscriber) !=
      subscribers_.end()) {
    return;
  }
  subscribers_.push_back(subscriber);
}

void TelemetryBus::unsubscribe(TelemetrySubscriber* subscriber) {
  subscribers_.erase(
      std::remove(subscribers_.begin(), subscribers_.end(), subscriber),
      subscribers_.end());
}

void TelemetryBus::publish_run_begin(const RunStart& run) const {
  for (TelemetrySubscriber* s : subscribers_) s->on_run_begin(run);
}

void TelemetryBus::publish(const PhaseSample& sample,
                           std::span<const u64> job_executed) const {
  for (TelemetrySubscriber* s : subscribers_) {
    s->on_phase(sample);
    if (!job_executed.empty()) s->on_job_phase(sample, job_executed);
  }
}

void TelemetryBus::publish(const TelemetryEvent& event) const {
  for (TelemetrySubscriber* s : subscribers_) s->on_event(event);
}

void TelemetryBus::publish_run_end(SimTime makespan_ns) const {
  for (TelemetrySubscriber* s : subscribers_) s->on_run_end(makespan_ns);
}

}  // namespace rips::obs
