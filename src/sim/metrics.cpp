#include "sim/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace rips::sim {

void RunMetrics::load_counters(const obs::MetricsRegistry& registry) {
  const auto value = [&](const char* name) -> u64 {
    const obs::Counter* c = registry.find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  num_tasks = value("tasks.executed");
  nonlocal_tasks = value("tasks.nonlocal");
  tasks_migrated = value("tasks.migrated");
  messages = value("msg.sent");
  system_phases = value("phase.system");
  crashes = value("fault.crashes");
  recovery_phases = value("fault.recovery_phases");
  tasks_reinjected = value("fault.tasks_reinjected");
  tasks_reexecuted = value("fault.tasks_reexecuted");
  dropped_messages = value("fault.dropped_messages");
  message_retries = value("fault.message_retries");
  lost_work_ns = static_cast<SimTime>(value("fault.lost_work_ns"));
  recovery_time_ns = static_cast<SimTime>(value("fault.recovery_time_ns"));
}

void RunMetrics::store_job_counters(obs::MetricsRegistry& registry) const {
  for (size_t j = 0; j < jobs.size(); ++j) {
    const JobMetrics& jm = jobs[j];
    const std::string prefix = "job." + std::to_string(j) + ".";
    registry.counter(prefix + "tasks_executed").add(jm.tasks);
    registry.counter(prefix + "tasks_nonlocal").add(jm.nonlocal_tasks);
    registry.counter(prefix + "tasks_migrated").add(jm.tasks_migrated);
    registry.counter(prefix + "work_ns").add(static_cast<u64>(jm.work_ns));
    registry.counter(prefix + "completion_ns")
        .add(static_cast<u64>(jm.completion_ns));
  }
}

double RunMetrics::job_fairness() const {
  if (jobs.size() < 2) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const JobMetrics& j : jobs) {
    const double x = j.progress_rate();
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(jobs.size()) * sum_sq);
}

std::string RunMetrics::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "N=%d tasks=%llu nonlocal=%llu T=%.3fs Th=%.3fs Ti=%.3fs "
                "mu=%.1f%% phases=%llu",
                num_nodes, static_cast<unsigned long long>(num_tasks),
                static_cast<unsigned long long>(nonlocal_tasks), exec_s(),
                overhead_s(), idle_s(), 100.0 * efficiency(),
                static_cast<unsigned long long>(system_phases));
  std::string out = buf;
  if (crashes > 0 || dropped_messages > 0) {
    std::snprintf(buf, sizeof buf,
                  " crashes=%llu recoveries=%llu reexec=%llu drops=%llu "
                  "lost=%.3fs",
                  static_cast<unsigned long long>(crashes),
                  static_cast<unsigned long long>(recovery_phases),
                  static_cast<unsigned long long>(tasks_reexecuted),
                  static_cast<unsigned long long>(dropped_messages),
                  1e-9 * static_cast<double>(lost_work_ns));
    out += buf;
  }
  return out;
}

JobLatency job_latency(const RunMetrics& metrics,
                       const std::vector<SimTime>& submit_ns) {
  std::vector<SimTime> sorted;
  for (size_t j = 0; j < metrics.jobs.size() && j < submit_ns.size(); ++j) {
    const SimTime end = metrics.jobs[j].completion_ns;
    sorted.push_back(end > submit_ns[j] ? end - submit_ns[j] : 0);
  }
  JobLatency out;
  out.samples = sorted.size();
  if (sorted.empty()) return out;
  std::sort(sorted.begin(), sorted.end());
  const auto pct = [&](double q) {
    return sorted[static_cast<size_t>(q *
                                      static_cast<double>(sorted.size() - 1))];
  };
  SimTime sum = 0;
  for (const SimTime l : sorted) sum += l;
  out.p50_ns = pct(0.50);
  out.p95_ns = pct(0.95);
  out.p99_ns = pct(0.99);
  out.mean_ns = sum / static_cast<SimTime>(sorted.size());
  return out;
}

namespace {

void append_row(std::string& out, const BenchRow& r) {
  using obs::json::quoted;
  const RunMetrics& m = r.metrics;
  char buf[64];
  const auto fixed = [&](const char* fmt, double v) {
    std::snprintf(buf, sizeof buf, fmt, v);
    return std::string(buf);
  };
  out += "{";
  out += "\"workload\":" + quoted(r.workload) + ",";
  out += "\"group\":" + quoted(r.group) + ",";
  out += "\"scheduler\":" + quoted(r.scheduler) + ",";
  out += "\"policy\":" + quoted(r.policy) + ",";
  out += "\"nodes\":" + std::to_string(r.nodes) + ",";
  out += "\"tasks\":" + std::to_string(m.num_tasks) + ",";
  out += "\"makespan_ns\":" + std::to_string(m.makespan_ns) + ",";
  out += "\"sequential_ns\":" + std::to_string(m.sequential_ns) + ",";
  out += "\"efficiency\":" + fixed("%.6f", m.efficiency()) + ",";
  out += "\"speedup\":" + fixed("%.3f", m.speedup()) + ",";
  out += "\"overhead_s\":" + fixed("%.6f", m.overhead_s()) + ",";
  out += "\"idle_s\":" + fixed("%.6f", m.idle_s()) + ",";
  out += "\"nonlocal_tasks\":" + std::to_string(m.nonlocal_tasks) + ",";
  out += "\"system_phases\":" + std::to_string(m.system_phases) + ",";
  out += "\"measure_pass\":" +
         quoted(m.used_fast_measure ? "drain-sum" : "full") + ",";
  if (m.jobs.size() >= 2) {
    out += "\"fairness\":" + fixed("%.6f", m.job_fairness()) + ",";
    out += "\"jobs\":[";
    for (size_t j = 0; j < m.jobs.size(); ++j) {
      const JobMetrics& jm = m.jobs[j];
      if (j > 0) out += ",";
      out += "{";
      out += "\"name\":" + quoted(jm.name) + ",";
      out += "\"tasks\":" + std::to_string(jm.tasks) + ",";
      out += "\"nonlocal_tasks\":" + std::to_string(jm.nonlocal_tasks) + ",";
      out += "\"tasks_migrated\":" + std::to_string(jm.tasks_migrated) + ",";
      out += "\"work_ns\":" + std::to_string(jm.work_ns) + ",";
      out += "\"completion_ns\":" + std::to_string(jm.completion_ns);
      out += "}";
    }
    out += "],";
  }
  const JobLatency lat = job_latency(m, r.job_submit_ns);
  if (lat.samples > 0) {
    out += "\"latency_p50_ns\":" + std::to_string(lat.p50_ns) + ",";
    out += "\"latency_p95_ns\":" + std::to_string(lat.p95_ns) + ",";
    out += "\"latency_p99_ns\":" + std::to_string(lat.p99_ns) + ",";
    out += "\"latency_mean_ns\":" + std::to_string(lat.mean_ns) + ",";
  }
  if (r.jobs_done) {
    out += "\"jobs_done\":" + std::to_string(*r.jobs_done) + ",";
  }
  out += "\"monitors_ok\":" + std::string(r.monitors_ok ? "true" : "false") +
         ",";
  out += "\"metrics\":" + r.registry_json;
  out += "}";
}

}  // namespace

std::string bench_doc_json(std::string_view suite, bool quick, i32 nodes,
                           const std::vector<BenchRow>& rows) {
  std::string out = "{";
  out += "\"schema\":\"rips-bench-v1\",";
  out += "\"suite\":" + obs::json::quoted(suite) + ",";
  out += "\"quick\":" + std::string(quick ? "true" : "false") + ",";
  out += "\"nodes\":" + std::to_string(nodes) + ",";
  out += "\"runs\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ",";
    append_row(out, rows[i]);
  }
  out += "]}";
  return out;
}

}  // namespace rips::sim
