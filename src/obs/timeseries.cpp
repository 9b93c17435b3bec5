#include "obs/timeseries.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/json.hpp"

namespace rips::obs {

namespace {

/// Field extractor for the bands.
i64 sample_field(const PhaseSample& s, const std::string& field) {
  if (field == "tasks") return static_cast<i64>(s.tasks);
  if (field == "moved") return static_cast<i64>(s.moved);
  if (field == "imbalance") return s.imbalance;
  if (field == "comm_steps") return s.comm_steps;
  if (field == "rts_total") return s.rts_total;
  if (field == "retries") return s.retries;
  if (field == "drain_ns") return s.drain_ns;
  if (field == "duration_ns") return s.t1 - s.t0;
  return 0;
}

bool known_field(const std::string& field) {
  static const char* const kFields[] = {"tasks",   "moved",    "imbalance",
                                        "comm_steps", "rts_total", "retries",
                                        "drain_ns", "duration_ns"};
  for (const char* f : kFields) {
    if (field == f) return true;
  }
  return false;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string band_json(const SeriesBand& band) {
  std::string out = "{\"count\":" + std::to_string(band.count);
  out += ",\"mean\":" + fmt_double(band.mean);
  out += ",\"min\":" + std::to_string(band.min);
  out += ",\"max\":" + std::to_string(band.max);
  out += ",\"p50\":" + std::to_string(band.p50);
  out += ",\"p95\":" + std::to_string(band.p95);
  out += "}";
  return out;
}

}  // namespace

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

SeriesBand TimeSeriesSampler::steady_band(const std::string& field) const {
  SeriesBand band;
  if (!known_field(field)) return band;

  // Prefer the system-phase cadence (the paper's unit of steady state).
  // Collective retries and the drain estimate belong to user phases, the
  // only samples that carry them; per-job rows repeat their phase, so only
  // the phase's own sample (job < 0) counts. Dynamic-engine series fall
  // back to whatever kind they publish.
  const bool user_field = field == "retries" || field == "drain_ns";
  std::vector<const PhaseSample*> window;
  for (size_t i = 0; i < samples_.size(); ++i) {
    const PhaseSample& s = samples_[i];
    if (user_field ? s.kind == PhaseKind::kUser && s.job < 0
                   : s.kind == PhaseKind::kSystem) {
      window.push_back(&s);
    }
  }
  if (window.empty()) {
    for (size_t i = 0; i < samples_.size(); ++i) window.push_back(&samples_[i]);
  }
  if (window.empty()) return band;

  // Steady state = second half of the run; short runs keep everything.
  if (window.size() >= 8) {
    window.erase(window.begin(),
                 window.begin() + static_cast<std::ptrdiff_t>(window.size() / 2));
  }

  std::vector<i64> values;
  values.reserve(window.size());
  i64 sum = 0;
  for (const PhaseSample* s : window) {
    const i64 v = sample_field(*s, field);
    values.push_back(v);
    sum += v;
  }
  std::sort(values.begin(), values.end());
  band.count = values.size();
  band.mean = static_cast<double>(sum) / static_cast<double>(values.size());
  band.min = values.front();
  band.max = values.back();
  const auto rank = [&](double q) {
    size_t idx = static_cast<size_t>(q * static_cast<double>(values.size()));
    if (idx >= values.size()) idx = values.size() - 1;
    return values[idx];
  };
  band.p50 = rank(0.50);
  band.p95 = rank(0.95);
  return band;
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
  out += "],\"bands\":{";
  static const char* const kBandFields[] = {"drain_ns", "duration_ns",
                                            "imbalance", "moved",
                                            "retries",  "tasks"};
  bool first = true;
  for (const char* field : kBandFields) {
    if (!first) out += ",";
    first = false;
    out += json::quoted(field) + ":" + band_json(steady_band(field));
  }
  out += "}}";
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
