// harness — machine-readable bench driver (docs/OBSERVABILITY.md).
//
// Runs one suite and emits its JSON document ("rips-bench-v1",
// sim::bench_doc_json) that bench_diff and notebooks can consume, instead
// of scraping the ASCII tables the fig*/table* benches print. Suites:
//   core    the first paper workload of each application group;
//   full    every paper workload;
//   scale   the scaling frontier (docs/PERFORMANCE.md, Scaling): RIPS on
//           the `scale` synthetic preset — strong scaling of one ~1M-task
//           trace at {128, 512, 2048, 4096, 8192, 16384, 65536} nodes (the
//           4096-65536 tier repeats in weighted mode) and weak scaling
//           (~256 tasks per node) at {128, 512, 2048, 4096}. --quick runs
//           one 2048-node ~100k-task strong point. Phase snapshots are off:
//           the suite times the allocation-free steady-state loop.
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
//   ./harness --suite=scale --quick=0 --json  # -> BENCH_scale.json
//   ./harness --app=Queens --trace-out=run.trace.json
//
// The Perfetto trace (--trace-out) holds the LAST run executed, so narrow
// the selection when tracing.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "apps/trace_io.hpp"
#include "exec/sweep/runner.hpp"
#include "obs/live_status.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "util/args.hpp"
#include "util/check.hpp"

namespace {

using namespace rips;

/// The strategies a --strategy value names: the four Table-I ones for
/// "all", else the one it names.
std::vector<sweep::Kind> parse_strategies(const std::string& s) {
  if (s == "all") return sweep::table1_kinds();
  const std::optional<sweep::Kind> kind = sweep::parse_kind(s);
  if (!kind.has_value()) {
    throw std::invalid_argument(
        "--strategy must be rips|random|gradient|rid|sid|all, not '" + s +
        "'");
  }
  return {*kind};
}

/// One row of a suite.
struct Point {
  size_t workload = 0;  ///< index into Suite::specs
  std::string group;    ///< the row's "group" member
  i32 nodes = 0;
  sweep::Kind kind = sweep::Kind::kRips;
  bool weighted = false;
};

struct Suite {
  std::vector<apps::WorkloadSpec> specs;  ///< built once, shared by rows
  std::vector<Point> points;
  i32 nodes = 0;  ///< the document's "nodes" member
};

/// Core/full/--app selection over the paper workloads. Selects BEFORE
/// building: specs carry the group/name the built workload will have, so
/// the core suite / --app filter never pays for workloads it will not run.
Suite paper_suite(const std::string& suite, const std::string& app_filter,
                  bool quick, i32 nodes,
                  const std::vector<sweep::Kind>& kinds) {
  Suite s;
  s.nodes = nodes;
  std::vector<std::string> seen_groups;
  for (const apps::WorkloadSpec& spec : apps::paper_workload_specs(quick)) {
    if (!app_filter.empty()) {
      if (spec.name.find(app_filter) == std::string::npos &&
          spec.group.find(app_filter) == std::string::npos) {
        continue;
      }
    } else if (suite == "core") {
      // First workload of each application group: the smoke set CI runs.
      if (std::find(seen_groups.begin(), seen_groups.end(), spec.group) !=
          seen_groups.end()) {
        continue;
      }
      seen_groups.push_back(spec.group);
    }
    for (const sweep::Kind kind : kinds) {
      s.points.push_back({s.specs.size(), spec.group, nodes, kind, false});
    }
    s.specs.push_back(spec);
  }
  if (s.specs.empty()) {
    throw std::invalid_argument("--app=" + app_filter +
                                " matches no workload");
  }
  return s;
}

/// The scaling frontier. Strong scaling re-runs one trace at every machine
/// size; weak scaling grows the trace with the machine. The strong tier
/// extends through 8K-64K nodes, where per-phase scheduler/monitor state
/// dwarfs the per-task state and the flat data-level kernels carry the
/// run; those sizes repeat in weighted mode (per-task work as the load
/// unit), which exercises the gather-sum load collection instead of the
/// count-only path.
Suite scale_suite(bool quick) {
  const std::vector<i32> strong =
      quick ? std::vector<i32>{2048}
            : std::vector<i32>{128, 512, 2048, 4096, 8192, 16384, 65536};
  const std::vector<i32> weighted =
      quick ? std::vector<i32>{} : std::vector<i32>{4096, 8192, 16384, 65536};
  const std::vector<i32> weak =
      quick ? std::vector<i32>{} : std::vector<i32>{128, 512, 2048, 4096};
  const u64 strong_target = quick ? 102'400 : 1'048'576;

  Suite s;
  s.nodes = strong.back();
  const auto add = [&](const char* group, i32 nodes, u64 target,
                       bool is_weighted) {
    // Each distinct trace size is built once.
    const std::string name = "scale-" + std::to_string(target);
    size_t w = 0;
    while (w < s.specs.size() && s.specs[w].name != name) ++w;
    if (w == s.specs.size()) {
      apps::WorkloadSpec spec;
      spec.group = "scale";
      spec.name = name;
      spec.build = [name, target]() {
        apps::Workload out;
        out.group = "scale";
        out.name = name;
        out.trace = apps::cached_trace(name, [target] {
          return apps::build_synthetic_trace(apps::scale_config(target),
                                             /*seed=*/1);
        });
        out.cost.ns_per_work = 2000.0;
        out.tasks_reported = out.trace.size();
        return out;
      };
      s.specs.push_back(std::move(spec));
    }
    s.points.push_back({w, group, nodes, sweep::Kind::kRips, is_weighted});
  };
  for (const i32 n : strong) add("strong-scaling", n, strong_target, false);
  for (const i32 n : weighted) {
    add("strong-scaling-weighted", n, strong_target, true);
  }
  for (const i32 n : weak) {
    add("weak-scaling", n, static_cast<u64>(n) * 256, false);
  }
  return s;
}

int run_harness(const Args& args) {
  if (args.has("help")) {
    std::printf(
        "usage: harness [--suite=core|full|scale] [--app=<name substring>]\n"
        "  [--nodes=32] [--strategy=rips|random|gradient|rid|sid|all]\n"
        "  [--policy={any,all}-{lazy,eager}] [--quick=1] [--rid-u=0.4]\n"
        "  [--monitors=1] [--jobs=1] [--json[=BENCH_<suite>.json]]\n"
        "  [--trace-out=path] [--trace-cache=DIR]\n"
        "  [--live-status] [--timeseries-out=harness.timeseries.json]\n"
        "  [--fault-seed=N] [--crash-mtbf-ms=N] [--drop-prob=P]\n"
        "  [--fault-horizon-ms=N]\n"
        "emits the rips-bench-v1 JSON document (see docs/OBSERVABILITY.md);\n"
        "bench/bench_diff validates and diffs it. --jobs=N parallelizes the\n"
        "sweep (0 = every CPU the process may use); output is identical for\n"
        "any N.\n"
        "--suite=scale runs RIPS on the scaling frontier at its own machine\n"
        "sizes (so it rejects --app, --nodes and other strategies) and is\n"
        "the only suite that takes the --fault-* flags: one fault plan per\n"
        "machine size. --live-status keeps a progress line on stderr;\n"
        "--timeseries-out records per-phase samples for every run and\n"
        "writes a rips-timeseries-v1 document (both leave stdout and the\n"
        "bench JSON byte-identical). --trace-cache=DIR caches the expensive\n"
        "application traces under DIR across invocations (overrides the\n"
        "RIPS_TRACE_CACHE env var). stderr ends with one line: wall clock,\n"
        "job count, runs, simulated tasks and simulated tasks per\n"
        "wall-second of the sweep (harness: wall_ms= jobs= runs= tasks=\n"
        "throughput=).\n");
    return 0;
  }
  args.check_known({"help", "suite", "app", "nodes", "strategy", "policy",
                    "quick", "rid-u", "monitors", "jobs", "json", "trace-out",
                    "trace-cache", "live-status", "timeseries-out",
                    "fault-seed", "crash-mtbf-ms", "drop-prob",
                    "fault-horizon-ms"});

  if (args.has("trace-cache")) {
    apps::set_trace_cache_dir(args.get("trace-cache", ""));
  }
  const bool quick = args.get_bool("quick", true);
  const i32 nodes = static_cast<i32>(args.get_int("nodes", 32));
  const i32 jobs = static_cast<i32>(args.get_int("jobs", 1));
  const std::string suite = args.get("suite", "core");
  const std::string app_filter = args.get("app", "");
  const std::string policy_name = args.get("policy", "any-lazy");
  const std::optional<core::RipsConfig> config =
      core::parse_policy(policy_name);
  if (!config.has_value()) {
    throw std::invalid_argument(
        "--policy must be {any,all}-{lazy,eager}, not '" + policy_name + "'");
  }
  const double rid_u = args.get_double("rid-u", 0.4);
  const bool monitors = args.get_bool("monitors", true);
  const std::vector<sweep::Kind> kinds =
      parse_strategies(args.get("strategy", "rips"));
  const bool scale = suite == "scale";
  const bool inject_faults = args.has("fault-seed");
  if (suite != "core" && suite != "full" && !scale) {
    throw std::invalid_argument("--suite must be core|full|scale, not '" +
                                suite + "'");
  }
  if (scale) {
    if (args.has("app") || args.has("nodes")) {
      throw std::invalid_argument(
          "--suite=scale sets its own workloads and machine sizes; drop "
          "--app and --nodes");
    }
    if (kinds.size() != 1 || kinds[0] != sweep::Kind::kRips) {
      throw std::invalid_argument(
          "--suite=scale runs RIPS only; drop --strategy");
    }
  } else {
    for (const char* flag : {"fault-seed", "crash-mtbf-ms", "drop-prob",
                             "fault-horizon-ms"}) {
      if (args.has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " needs --suite=scale");
      }
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const Suite s = scale ? scale_suite(quick)
                        : paper_suite(suite, app_filter, quick, nodes, kinds);
  const std::vector<apps::Workload> workloads =
      sweep::build_workloads(s.specs, jobs);

  // Deterministic fault injection, one plan per row (crash victims are
  // node ids, so a plan is only meaningful at its own machine size).
  std::vector<sim::FaultPlan> fault_plans;
  if (inject_faults) {
    sim::FaultSpec spec;
    spec.horizon_ns = args.get_int("fault-horizon-ms", 1000) * 1'000'000;
    spec.crash_mtbf_ns = args.get_double("crash-mtbf-ms", 0.0) * 1e6;
    spec.drop_prob = args.get_double("drop-prob", 0.0);
    const u64 seed = static_cast<u64>(args.get_int("fault-seed", 1));
    for (const Point& p : s.points) {
      fault_plans.push_back(sim::FaultPlan::generate(seed, p.nodes, spec));
    }
  }

  // Live telemetry: one locked printer shared by every per-run bus, and
  // per-run samplers when a time-series export was requested. Both are
  // passive — stdout and the bench JSON stay byte-identical.
  const bool live_status = args.get_bool("live-status", args.has("live-status"));
  const bool want_timeseries = args.has("timeseries-out");
  const bool want_trace = args.has("trace-out");
  obs::LiveStatusPrinter::Options live_opts;
  live_opts.total_runs = s.points.size();
  obs::LiveStatusPrinter live(live_opts);

  std::vector<sweep::RunDescriptor> descriptors;
  for (size_t i = 0; i < s.points.size(); ++i) {
    const Point& p = s.points[i];
    sweep::RunDescriptor d;
    d.workload = &workloads[p.workload];
    d.nodes = p.nodes;
    d.kind = p.kind;
    d.rid_u = rid_u;
    d.config = *config;
    d.config.weighted = p.weighted;
    d.monitor = monitors;
    d.tuning.phase_snapshots = !scale;
    if (inject_faults) d.fault_plan = &fault_plans[i];
    if (live_status) d.live = &live;
    d.collect_timeseries = want_timeseries;
    // Scheduling hint only (results are order-committed): run time scales
    // with trace length, Gradient's per-event pressure propagation makes
    // it ~8x the other engines on the same trace, and per-phase scheduler
    // and drain state scale with the machine, so the 64K-node rows start
    // first under --jobs=N instead of trailing the sweep.
    d.cost_hint = static_cast<double>(d.workload->trace.size()) *
                      (p.kind == sweep::Kind::kGradient ? 8.0 : 1.0) +
                  static_cast<double>(p.nodes) * 256.0;
    descriptors.push_back(d);
  }
  // The exported trace holds the LAST run; per-run sessions are tens of
  // MB, so only that run records one.
  if (want_trace) descriptors.back().collect_trace = true;

  const auto sweep_start = std::chrono::steady_clock::now();
  const std::vector<sweep::RunResult> results =
      sweep::run_sweep(descriptors, jobs);
  const auto sweep_end = std::chrono::steady_clock::now();
  if (live_status) live.finish();

  std::vector<sim::BenchRow> rows;
  bool all_monitors_ok = true;
  u64 total_tasks = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const sweep::RunDescriptor& d = descriptors[i];
    const sweep::RunResult& r = results[i];
    if (!r.ok) {
      std::fprintf(stderr, "sweep run failed: %s\n", r.error.c_str());
      RIPS_CHECK_MSG(false, "a sweep run threw; see stderr");
    }
    const sim::RunMetrics& m = r.run.metrics;
    sim::BenchRow row;
    row.workload = d.workload->name;
    row.group = s.points[i].group;
    row.scheduler = r.run.strategy;
    row.policy = d.kind == sweep::Kind::kRips ? policy_name : "none";
    row.nodes = d.nodes;
    row.metrics = m;
    row.monitors_ok = r.monitors_ok;
    row.registry_json = r.run.registry.to_json();
    rows.push_back(std::move(row));
    total_tasks += m.num_tasks;
    if (scale) {
      std::printf("%-14s %-14s nodes=%-5d tasks=%-8llu eff=%.3f "
                  "makespan=%.3fs phases=%llu%s\n",
                  s.points[i].group.c_str(), d.workload->name.c_str(), d.nodes,
                  static_cast<unsigned long long>(m.num_tasks),
                  m.efficiency(), m.exec_s(),
                  static_cast<unsigned long long>(m.system_phases),
                  r.monitors_ok ? "" : " MONITOR-VIOLATION");
    } else {
      std::printf("%-18s %-9s eff=%.3f makespan=%.3fs phases=%llu %s\n",
                  d.workload->name.c_str(), r.run.strategy.c_str(),
                  m.efficiency(), m.exec_s(),
                  static_cast<unsigned long long>(m.system_phases),
                  r.monitors_ok ? "" : "MONITOR-VIOLATION");
    }
    if (!r.monitors_ok) {
      all_monitors_ok = false;
      std::fputs(r.monitor_report.c_str(), stderr);
    }
  }

  if (args.has("json")) {
    // Bare `--json` (no value) selects the default artifact name.
    std::string path = args.get("json", "");
    if (path.empty()) path = "BENCH_" + suite + ".json";
    std::ofstream out(path, std::ios::binary);
    out << sim::bench_doc_json(app_filter.empty() ? suite : "custom", quick,
                               s.nodes, rows)
        << "\n";
    out.flush();
    RIPS_CHECK_MSG(out.good(), "failed to write the bench JSON");
    std::printf("wrote %s (%zu runs)\n", path.c_str(), rows.size());
  }
  if (want_timeseries) {
    std::string path = args.get("timeseries-out", "harness.timeseries.json");
    if (path.empty()) path = "harness.timeseries.json";
    std::vector<const obs::TimeSeriesSampler*> samplers;
    for (const sweep::RunResult& r : results) {
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

  // Stderr on purpose: stdout must stay byte-identical across hosts and
  // job counts, and wall clock is the one thing allowed to differ. Nightly
  // CI parses the `harness: wall_ms=` prefix. Throughput counts every
  // simulated task execution against the sweep's wall time (workload
  // construction excluded — it is cacheable and the same for every engine
  // path).
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
  const double sweep_s =
      std::chrono::duration<double>(sweep_end - sweep_start).count();
  std::fprintf(stderr,
               "harness: wall_ms=%lld jobs=%d runs=%zu tasks=%llu "
               "throughput=%.0f tasks/s\n",
               static_cast<long long>(wall_ms), jobs, rows.size(),
               static_cast<unsigned long long>(total_tasks),
               sweep_s > 0.0 ? static_cast<double>(total_tasks) / sweep_s
                             : 0.0);
  return all_monitors_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Unknown flags and bad flag values exit 2 with one line naming the flag.
  try {
    return run_harness(Args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "harness: %s\n", e.what());
    return 2;
  }
}
