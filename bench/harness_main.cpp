// harness — machine-readable bench driver (docs/OBSERVABILITY.md).
//
// Runs paper workloads under the selected strategies and emits a stable
// JSON document ("rips-bench-v1") that CI diffing, notebooks, and the
// bench/check_bench_json validator can consume, instead of scraping the
// ASCII tables the fig*/table* benches print.
//
// Workload construction and the runs themselves dispatch through the
// parallel sweep executor (src/exec/sweep): `--jobs=N` spreads them over N
// OS threads. Results are committed in descriptor order, so stdout and the
// JSON document are byte-identical for ANY job count (CI diffs --jobs=1
// against --jobs=$(nproc) to enforce this). The wall-clock line goes to
// stderr to keep stdout deterministic.
//
// Examples:
//   ./harness --json                      # core suite -> BENCH_core.json
//   ./harness --json=out.json --strategy=all --nodes=64 --jobs=4
//   ./harness --app=Queens --trace-out=run.trace.json
//
// The Perfetto trace (--trace-out) holds the LAST run executed, so narrow
// the selection when tracing.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/trace_io.hpp"
#include "harness.hpp"
#include "obs/json.hpp"
#include "obs/live_status.hpp"
#include "util/args.hpp"
#include "util/check.hpp"

namespace {

using namespace rips;

core::RipsConfig parse_policy(const std::string& policy) {
  core::RipsConfig config;
  if (policy == "any-lazy") {
    config.global = core::GlobalPolicy::kAny;
    config.local = core::LocalPolicy::kLazy;
  } else if (policy == "any-eager") {
    config.global = core::GlobalPolicy::kAny;
    config.local = core::LocalPolicy::kEager;
  } else if (policy == "all-lazy") {
    config.global = core::GlobalPolicy::kAll;
    config.local = core::LocalPolicy::kLazy;
  } else if (policy == "all-eager") {
    config.global = core::GlobalPolicy::kAll;
    config.local = core::LocalPolicy::kEager;
  } else {
    RIPS_CHECK_MSG(false, "--policy must be {any,all}-{lazy,eager}");
  }
  return config;
}

std::vector<bench::Kind> parse_strategies(const std::string& s) {
  if (s == "all") return bench::table1_kinds();
  if (s == "rips") return {bench::Kind::kRips};
  if (s == "random") return {bench::Kind::kRandom};
  if (s == "gradient") return {bench::Kind::kGradient};
  if (s == "rid") return {bench::Kind::kRid};
  if (s == "sid") return {bench::Kind::kSid};
  RIPS_CHECK_MSG(false, "--strategy must be rips|random|gradient|rid|sid|all");
  return {};
}

struct RunRecord {
  std::string workload;
  std::string group;
  std::string scheduler;
  std::string policy;
  i32 nodes = 0;
  bool monitors_ok = true;
  sim::RunMetrics metrics;
  std::string registry_json;
};

std::string to_json(const std::vector<RunRecord>& runs, const std::string& suite,
                    bool quick, i32 nodes) {
  using obs::json::quoted;
  std::string out = "{";
  out += "\"schema\":\"rips-bench-v1\",";
  out += "\"suite\":" + quoted(suite) + ",";
  out += "\"quick\":" + std::string(quick ? "true" : "false") + ",";
  out += "\"nodes\":" + std::to_string(nodes) + ",";
  out += "\"runs\":[";
  char buf[64];
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    const sim::RunMetrics& m = r.metrics;
    if (i > 0) out += ",";
    out += "{";
    out += "\"workload\":" + quoted(r.workload) + ",";
    out += "\"group\":" + quoted(r.group) + ",";
    out += "\"scheduler\":" + quoted(r.scheduler) + ",";
    out += "\"policy\":" + quoted(r.policy) + ",";
    out += "\"nodes\":" + std::to_string(r.nodes) + ",";
    out += "\"tasks\":" + std::to_string(m.num_tasks) + ",";
    out += "\"makespan_ns\":" + std::to_string(m.makespan_ns) + ",";
    out += "\"sequential_ns\":" + std::to_string(m.sequential_ns) + ",";
    std::snprintf(buf, sizeof buf, "%.6f", m.efficiency());
    out += "\"efficiency\":" + std::string(buf) + ",";
    std::snprintf(buf, sizeof buf, "%.3f", m.speedup());
    out += "\"speedup\":" + std::string(buf) + ",";
    std::snprintf(buf, sizeof buf, "%.6f", m.overhead_s());
    out += "\"overhead_s\":" + std::string(buf) + ",";
    std::snprintf(buf, sizeof buf, "%.6f", m.idle_s());
    out += "\"idle_s\":" + std::string(buf) + ",";
    out += "\"nonlocal_tasks\":" + std::to_string(m.nonlocal_tasks) + ",";
    out += "\"system_phases\":" + std::to_string(m.system_phases) + ",";
    out += "\"measure_pass\":" +
           quoted(m.used_fast_measure ? "drain-sum" : "full") + ",";
    // Per-job (tenant) rows, multi-job workloads only: single-job runs
    // carry no "fairness" or "jobs" field.
    if (!m.jobs.empty()) {
      std::snprintf(buf, sizeof buf, "%.6f", m.job_fairness());
      out += "\"fairness\":" + std::string(buf) + ",";
      out += "\"jobs\":[";
      for (size_t j = 0; j < m.jobs.size(); ++j) {
        const sim::JobMetrics& jm = m.jobs[j];
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
    out += "\"monitors_ok\":" + std::string(r.monitors_ok ? "true" : "false") +
           ",";
    out += "\"metrics\":" + r.registry_json;
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.has("help")) {
    std::printf(
        "usage: harness [--suite=core|full] [--app=<name substring>]\n"
        "  [--nodes=32] [--strategy=rips|random|gradient|rid|sid|all]\n"
        "  [--policy={any,all}-{lazy,eager}] [--quick=1] [--rid-u=0.4]\n"
        "  [--monitors=1] [--jobs=1] [--json[=BENCH_core.json]]\n"
        "  [--trace-out=path] [--trace-cache=DIR]\n"
        "  [--live-status] [--timeseries-out=harness.timeseries.json]\n"
        "emits the rips-bench-v1 JSON document (see docs/OBSERVABILITY.md);\n"
        "validate with bench/check_bench_json. --jobs=N parallelizes the\n"
        "sweep (0 = all hardware threads); output is identical for any N.\n"
        "--live-status keeps a progress line on stderr; --timeseries-out\n"
        "records per-phase samples for every run and writes a\n"
        "rips-timeseries-v1 document (both leave stdout and the bench JSON\n"
        "byte-identical). --trace-cache=DIR caches the expensive\n"
        "application traces under DIR across invocations (overrides the\n"
        "RIPS_TRACE_CACHE env var).\n");
    return 0;
  }
  args.check_known({"help", "suite", "app", "nodes", "strategy", "policy",
                    "quick", "rid-u", "monitors", "jobs", "json", "trace-out",
                    "trace-cache", "live-status", "timeseries-out"});

  if (args.has("trace-cache")) {
    apps::set_trace_cache_dir(args.get("trace-cache", ""));
  }
  const bool quick = args.get_bool("quick", true);
  const i32 nodes = static_cast<i32>(args.get_int("nodes", 32));
  const i32 jobs = static_cast<i32>(args.get_int("jobs", 1));
  const std::string suite = args.get("suite", "core");
  const std::string app_filter = args.get("app", "");
  const std::string policy_name = args.get("policy", "any-lazy");
  const core::RipsConfig config = parse_policy(policy_name);
  const double rid_u = args.get_double("rid-u", 0.4);
  const bool monitors = args.get_bool("monitors", true);
  const std::vector<bench::Kind> kinds =
      parse_strategies(args.get("strategy", "rips"));

  const auto wall_start = std::chrono::steady_clock::now();

  // Select BEFORE building: specs carry the group/name the built workload
  // will have, so the core suite / --app filter never pays for workloads
  // it will not run.
  const std::vector<apps::WorkloadSpec> all_specs =
      apps::paper_workload_specs(quick);
  std::vector<apps::WorkloadSpec> selected;
  std::vector<std::string> seen_groups;
  for (const apps::WorkloadSpec& s : all_specs) {
    if (!app_filter.empty()) {
      if (s.name.find(app_filter) == std::string::npos &&
          s.group.find(app_filter) == std::string::npos) {
        continue;
      }
    } else if (suite == "core") {
      // First workload of each application group: the smoke set CI runs.
      if (std::find(seen_groups.begin(), seen_groups.end(), s.group) !=
          seen_groups.end()) {
        continue;
      }
      seen_groups.push_back(s.group);
    } else {
      RIPS_CHECK_MSG(suite == "full", "--suite must be core|full");
    }
    selected.push_back(s);
  }
  RIPS_CHECK_MSG(!selected.empty(), "no workload matches the selection");

  const std::vector<apps::Workload> workloads =
      bench::build_workloads(selected, jobs);

  const bool want_trace = args.has("trace-out");

  std::vector<bench::RunDescriptor> descriptors;
  for (const apps::Workload& w : workloads) {
    for (const bench::Kind kind : kinds) {
      bench::RunDescriptor d;
      d.workload = &w;
      d.nodes = nodes;
      d.kind = kind;
      d.rid_u = rid_u;
      d.config = config;
      d.monitor = monitors;
      // Scheduling hint only (results are order-committed): Gradient's
      // per-event pressure propagation makes it ~8x the other engines on
      // the same trace, and run time scales with trace length.
      d.cost_hint = static_cast<double>(w.trace.size()) *
                    (kind == bench::Kind::kGradient ? 8.0 : 1.0);
      descriptors.push_back(d);
    }
  }
  // Like the sequential harness, the exported trace holds the LAST run;
  // per-run sessions are tens of MB, so only that run records one.
  if (want_trace) descriptors.back().collect_trace = true;

  // Live telemetry: one locked printer shared by every per-run bus, and
  // per-run samplers when a time-series export was requested. Both are
  // passive — stdout and the bench JSON stay byte-identical.
  const bool live_status = args.get_bool("live-status", args.has("live-status"));
  const bool want_timeseries = args.has("timeseries-out");
  obs::LiveStatusPrinter::Options live_opts;
  live_opts.total_runs = descriptors.size();
  obs::LiveStatusPrinter live(live_opts);
  for (bench::RunDescriptor& d : descriptors) {
    if (live_status) d.live = &live;
    d.collect_timeseries = want_timeseries;
  }

  const std::vector<bench::RunResult> results =
      bench::run_sweep(descriptors, jobs);
  if (live_status) live.finish();

  std::vector<RunRecord> runs;
  bool all_monitors_ok = true;
  for (size_t i = 0; i < results.size(); ++i) {
    const bench::RunDescriptor& d = descriptors[i];
    const bench::RunResult& r = results[i];
    if (!r.ok) {
      std::fprintf(stderr, "sweep run failed: %s\n", r.error.c_str());
      RIPS_CHECK_MSG(false, "a sweep run threw; see stderr");
    }
    RunRecord rec;
    rec.workload = d.workload->name;
    rec.group = d.workload->group;
    rec.scheduler = r.run.strategy;
    rec.policy = d.kind == bench::Kind::kRips ? policy_name : "none";
    rec.nodes = nodes;
    rec.monitors_ok = r.monitors_ok;
    rec.metrics = r.run.metrics;
    rec.registry_json = r.run.registry.to_json();
    runs.push_back(std::move(rec));
    std::printf("%-18s %-9s eff=%.3f makespan=%.3fs phases=%llu %s\n",
                d.workload->name.c_str(), r.run.strategy.c_str(),
                r.run.metrics.efficiency(), r.run.metrics.exec_s(),
                static_cast<unsigned long long>(r.run.metrics.system_phases),
                r.monitors_ok ? "" : "MONITOR-VIOLATION");
    if (!r.monitors_ok) {
      all_monitors_ok = false;
      std::fputs(r.monitor_report.c_str(), stderr);
    }
  }

  const std::string bench_json =
      to_json(runs, app_filter.empty() ? suite : "custom", quick, nodes);
  if (args.has("json")) {
    // Bare `--json` (no value) selects the default artifact name.
    std::string path = args.get("json", "BENCH_core.json");
    if (path.empty()) path = "BENCH_core.json";
    std::ofstream out(path, std::ios::binary);
    out << bench_json << "\n";
    out.flush();
    RIPS_CHECK_MSG(out.good(), "failed to write the bench JSON");
    std::printf("wrote %s (%zu runs)\n", path.c_str(), runs.size());
  }
  if (want_timeseries) {
    std::string path = args.get("timeseries-out", "harness.timeseries.json");
    if (path.empty()) path = "harness.timeseries.json";
    std::vector<const obs::TimeSeriesSampler*> samplers;
    for (const bench::RunResult& r : results) {
      samplers.push_back(r.timeseries.get());
    }
    std::ofstream ts_out(path, std::ios::binary);
    ts_out << obs::timeseries_doc_json(samplers);
    ts_out.flush();
    RIPS_CHECK_MSG(ts_out.good(), "failed to write the time series");
    std::printf("wrote %s (%zu series)\n", path.c_str(), samplers.size());
  }
  if (want_trace) {
    const std::string path = args.get("trace-out", "harness.trace.json");
    RIPS_CHECK(results.back().trace != nullptr);
    const obs::TraceSession& trace = *results.back().trace;
    RIPS_CHECK_MSG(trace.write_json(path), "failed to write the trace");
    std::printf("wrote %s (%zu events, %llu dropped)\n", path.c_str(),
                trace.size(), static_cast<unsigned long long>(trace.dropped()));
  }

  // Stderr on purpose: stdout must stay byte-identical across job counts,
  // and wall clock is the one thing --jobs is allowed to change. CI's
  // nightly speedup assertion parses this line.
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
  std::fprintf(stderr, "harness: wall_ms=%lld jobs=%d runs=%zu\n",
               static_cast<long long>(wall_ms), jobs, runs.size());
  return all_monitors_ok ? 0 : 1;
}
