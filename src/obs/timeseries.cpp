#include "obs/timeseries.hpp"

#include <fstream>

#include "obs/json.hpp"

namespace rips::obs {

std::array<i64, kSampleValues> sample_values(const PhaseSample& s) {
  return {static_cast<i64>(s.phase),  s.t0,
          s.t1,                       static_cast<i64>(s.tasks),
          static_cast<i64>(s.moved),  s.imbalance,
          s.comm_steps,               s.rts_total,
          s.retries,                  s.live_nodes,
          s.drain_ns,                 static_cast<i64>(s.executed_total),
          s.job};
}

PhaseSample sample_from_values(PhaseKind kind,
                               const std::array<i64, kSampleValues>& v) {
  PhaseSample s;
  s.kind = kind;
  s.phase = static_cast<u64>(v[0]);
  s.t0 = v[1];
  s.t1 = v[2];
  s.tasks = static_cast<u64>(v[3]);
  s.moved = static_cast<u64>(v[4]);
  s.imbalance = v[5];
  s.comm_steps = v[6];
  s.rts_total = v[7];
  s.retries = v[8];
  s.live_nodes = static_cast<i32>(v[9]);
  s.drain_ns = v[10];
  s.executed_total = static_cast<u64>(v[11]);
  s.job = static_cast<i32>(v[12]);
  return s;
}

TimeSeriesSampler::TimeSeriesSampler(Options options)
    : samples_(options.max_samples), events_(options.max_events) {}

void TimeSeriesSampler::on_run_begin(const RunStart& run) {
  engine_ = run.engine;
  num_nodes_ = run.num_nodes;
  num_tasks_ = run.num_tasks;
  makespan_ns_ = 0;
  run_complete_ = false;
}

void TimeSeriesSampler::on_phase(const PhaseSample& sample) {
  ++seen_;
  dropped_ += samples_.push(sample);
}

void TimeSeriesSampler::on_job_phase(const PhaseSample& sample,
                                     std::span<const u64> executed) {
  PhaseSample row = sample;
  row.retries = 0;
  for (size_t j = 0; j < executed.size(); ++j) {
    row.job = static_cast<i32>(j);
    row.tasks = executed[j];
    on_phase(row);
  }
}

void TimeSeriesSampler::on_event(const TelemetryEvent& event) {
  events_.push(event);
}

void TimeSeriesSampler::on_run_end(SimTime makespan_ns) {
  makespan_ns_ = makespan_ns;
  run_complete_ = true;
}

std::string TimeSeriesSampler::series_json() const {
  std::string out = "{";
  out += "\"label\":" + json::quoted(label_);
  out += ",\"engine\":" + json::quoted(engine_);
  out += ",\"nodes\":" + std::to_string(num_nodes_);
  out += ",\"tasks\":" + std::to_string(num_tasks_);
  out += ",\"makespan_ns\":" + std::to_string(makespan_ns_);
  out += ",\"complete\":" + std::string(run_complete_ ? "true" : "false");
  out += ",\"seen\":" + std::to_string(seen_);
  out += ",\"dropped\":" + std::to_string(dropped_);
  out += ",\"columns\":[";
  for (size_t c = 0; c < std::size(kSampleColumns); ++c) {
    if (c != 0) out += ",";
    out += json::quoted(kSampleColumns[c]);
  }
  out += "],\"samples\":[";
  for (size_t i = 0; i < samples_.size(); ++i) {
    const PhaseSample& s = samples_[i];
    if (i != 0) out += ",";
    out += "[" + json::quoted(phase_kind_name(s.kind));
    for (const i64 v : sample_values(s)) out += "," + std::to_string(v);
    out += "]";
  }
  out += "],\"events\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    const TelemetryEvent& e = events_[i];
    if (i != 0) out += ",";
    out += "{\"kind\":" + json::quoted(telemetry_event_kind_name(e.kind));
    out += ",\"t\":" + std::to_string(e.t);
    out += ",\"node\":" + std::to_string(e.node);
    out += ",\"phase\":" + std::to_string(e.phase);
    out += ",\"arg\":" + std::to_string(e.arg);
    out += ",\"detail\":" + json::quoted(e.detail);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string TimeSeriesSampler::to_json() const {
  return timeseries_doc_json({this});
}

bool TimeSeriesSampler::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  out << to_json();
  return static_cast<bool>(out);
}

std::string timeseries_doc_json(
    const std::vector<const TimeSeriesSampler*>& samplers) {
  std::string out = "{\"schema\":\"rips-timeseries-v1\",\"series\":[";
  bool first = true;
  for (const TimeSeriesSampler* s : samplers) {
    if (s == nullptr) continue;
    if (!first) out += ",";
    first = false;
    out += s->series_json();
  }
  out += "]}\n";
  return out;
}

}  // namespace rips::obs
