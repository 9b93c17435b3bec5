// rips_cli — general driver over the whole library: pick an application,
// a machine size, a strategy (RIPS with any parallel scheduler, or one of
// the dynamic baselines) and the RIPS policies, and get the Table-I style
// metrics. The kitchen-sink entry point for exploring the system.
//
// Examples:
//   ./rips_cli --app=queens --n=13 --nodes=64
//   ./rips_cli --app=gromos --cutoff=12 --strategy=rid
//   ./rips_cli --app=ida --config=2 --strategy=rips --sched=torus
//   ./rips_cli --app=synthetic --roots=5000 --strategy=rips --policy=all-eager
//   ./rips_cli --app=gauss --matrix=4096 --block=256 --weighted=1
//   ./rips_cli --app=queens --timeline=1      (ASCII utilization chart)
//   ./rips_cli --app=queens --trace-out=run.trace.json --monitors=1
//   ./rips_cli --app=queens --fault-seed=7 --crash-mtbf-ms=20
//       --trace-out=faulty.trace.json          (crash/recovery spans)
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "apps/gauss.hpp"
#include "apps/gromos.hpp"
#include "apps/nqueens.hpp"
#include "apps/puzzle.hpp"
#include "apps/synthetic.hpp"
#include "apps/trace_io.hpp"
#include "exec/sweep/runner.hpp"
#include "balance/engine.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/live_status.hpp"
#include "obs/monitors.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "rips/rips_engine.hpp"
#include "sched/scheduler.hpp"
#include "sim/fault.hpp"
#include "topo/topology.hpp"
#include "util/args.hpp"
#include "util/check.hpp"

namespace {

using namespace rips;

apps::TaskTrace build_app(const Args& args) {
  const std::string app = args.get("app", "queens");
  if (app == "queens") {
    return apps::build_nqueens_trace(
        static_cast<i32>(args.get_int("n", 13)),
        static_cast<i32>(args.get_int("split", 4)));
  }
  if (app == "ida") {
    const i32 index = static_cast<i32>(args.get_int("config", 1));
    if (index < 1 || index > 3) {
      throw std::invalid_argument("--config must be 1..3");
    }
    return apps::build_ida_trace(
        apps::paper_puzzle_configs()[static_cast<size_t>(index - 1)]);
  }
  if (app == "gromos") {
    apps::GromosConfig config;
    config.cutoff_angstrom = args.get_double("cutoff", 12.0);
    config.num_steps = static_cast<i32>(args.get_int("steps", 5));
    return apps::build_gromos_trace(config);
  }
  if (app == "gauss") {
    apps::GaussConfig config;
    config.matrix_n = static_cast<i32>(args.get_int("matrix", 4096));
    config.block = static_cast<i32>(args.get_int("block", 256));
    return apps::build_gauss_trace(config);
  }
  if (app == "synthetic") {
    apps::SyntheticConfig config;
    config.num_roots = static_cast<i32>(args.get_int("roots", 1000));
    config.spawn_prob = args.get_double("spawn", 0.5);
    config.max_depth = static_cast<i32>(args.get_int("depth", 4));
    config.work_model = static_cast<i32>(args.get_int("work-model", 2));
    config.mean_work = static_cast<u64>(args.get_int("mean-work", 10000));
    config.num_segments = static_cast<i32>(args.get_int("segments", 1));
    return apps::build_synthetic_trace(
        config, static_cast<u64>(args.get_int("seed", 1)));
  }
  throw std::invalid_argument(
      "--app must be queens|ida|gromos|gauss|synthetic, not '" + app + "'");
}

/// Work-unit calibration per app. Kept apart from build_app so a
/// trace-cache hit (which skips build_app entirely) still calibrates.
double default_ns_per_work(const std::string& app) {
  if (app == "ida") return 9600.0;
  if (app == "gromos") return 13000.0;
  if (app == "gauss") return 10.0;
  return 2000.0;  // queens, synthetic
}

/// Cache key for --trace-cache: the app plus every explicitly-passed
/// parameter that shapes the trace. Distinct parameterizations get
/// distinct files; re-running the same command line hits the cache.
std::string trace_cache_key(const Args& args) {
  std::string key = "cli-" + args.get("app", "queens");
  for (const char* p :
       {"n", "split", "config", "cutoff", "steps", "matrix", "block", "roots",
        "spawn", "depth", "work-model", "mean-work", "segments", "seed"}) {
    if (args.has(p)) key += std::string("-") + p + "=" + args.get(p, "");
  }
  return key;
}

core::RipsConfig parse_policy(const Args& args) {
  const std::string policy = args.get("policy", "any-lazy");
  const std::optional<core::RipsConfig> parsed = core::parse_policy(policy);
  if (!parsed.has_value()) {
    throw std::invalid_argument(
        "--policy must be {any,all}-{lazy,eager}, not '" + policy + "'");
  }
  core::RipsConfig config = *parsed;
  if (args.has("periodic-us")) {
    config.detect = core::DetectMode::kPeriodic;
    config.periodic_interval_ns = args.get_int("periodic-us", 10000) * 1000;
  }
  config.lifo_execution = args.get_bool("lifo", false);
  config.weighted = args.get_bool("weighted", false);
  return config;
}

/// The strategies a --strategy value names: every one for "all", else each
/// entry of the comma list (a single run names one).
std::vector<sweep::Kind> parse_strategies(const std::string& value) {
  std::vector<sweep::Kind> kinds;
  if (value == "all") {
    kinds = sweep::table1_kinds();
    kinds.push_back(sweep::Kind::kSid);
    return kinds;
  }
  std::string rest = value;
  do {
    const size_t comma = rest.find(',');
    const std::string name = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    const std::optional<sweep::Kind> kind = sweep::parse_kind(name);
    if (!kind.has_value()) {
      throw std::invalid_argument(
          "--strategy entries must be rips|random|gradient|rid|sid, not '" +
          name + "'");
    }
    kinds.push_back(*kind);
  } while (!rest.empty());
  return kinds;
}

/// --strategy=all or a comma list (e.g. rips,rid): run every named
/// strategy over the same trace through the sweep executor and print a
/// comparison table. Output is identical for any --jobs value.
int run_compare(const Args& args, const apps::TaskTrace& trace,
                const sim::CostModel& cost, i32 nodes,
                const core::RipsConfig& config,
                const std::vector<sweep::Kind>& kinds) {
  apps::Workload workload;
  workload.name = args.get("app", "queens");
  workload.trace = trace;
  workload.cost = cost;

  std::vector<sweep::RunDescriptor> descriptors;
  for (const sweep::Kind kind : kinds) {
    sweep::RunDescriptor d;
    d.workload = &workload;
    d.nodes = nodes;
    d.kind = kind;
    d.rid_u = args.get_double("rid-u", 0.4);
    d.config = config;
    d.cost_hint = static_cast<double>(workload.trace.size()) *
                  (kind == sweep::Kind::kGradient ? 8.0 : 1.0);
    descriptors.push_back(d);
  }
  const auto results = sweep::run_sweep(
      descriptors, static_cast<i32>(args.get_int("jobs", 1)));

  std::printf("%-9s %8s %8s %8s %8s %8s\n", "strategy", "mu", "speedup",
              "Th (s)", "Ti (s)", "T (s)");
  for (size_t i = 0; i < results.size(); ++i) {
    const sweep::RunResult& r = results[i];
    RIPS_CHECK_MSG(r.ok, "sweep run failed");
    const sim::RunMetrics& m = r.run.metrics;
    std::printf("%-9s %8.3f %8.1f %8.3f %8.3f %8.3f\n",
                r.run.strategy.c_str(), m.efficiency(), m.speedup(),
                m.overhead_s(), m.idle_s(), m.exec_s());
  }
  return 0;
}

int run_cli(const Args& args) {
  if (args.has("help")) {
    std::printf(
        "usage: rips_cli [--app=queens|ida|gromos|gauss|synthetic]\n"
        "  [--nodes=32] [--strategy=rips|random|gradient|rid|sid]\n"
        "  [--strategy=all | --strategy=a,b,...]  comparison sweep\n"
        "  [--jobs=1]  sweep threads (comparison mode; 0 = all cores)\n"
        "  [--sched=mwa|torus|hwa|twa|ring|optimal|dem]\n"
        "  [--policy={any,all}-{lazy,eager}] [--weighted=1] [--lifo=1]\n"
        "  [--periodic-us=N] [--timeline=1] [--timeline-width=100]\n"
        "  observability (docs/OBSERVABILITY.md):\n"
        "  [--trace-out=run.trace.json]   Perfetto trace (ui.perfetto.dev)\n"
        "  [--metrics-out=metrics.json]   counters/histograms/snapshots\n"
        "  [--monitors=1]                 Theorem-1/2 + conservation checks\n"
        "  [--live-status]                progress line on stderr\n"
        "  [--timeseries-out=run.timeseries.json]  per-phase sample series\n"
        "  [--blackbox[=rips-blackbox.json]]  always-on flight recorder:\n"
        "      dumps the recent-phase ring on faults, monitor violations,\n"
        "      aborts and fatal signals (inspect with trace_tool blackbox)\n"
        "  fault injection (RIPS strategy only):\n"
        "  [--fault-seed=N] [--crash-mtbf-ms=N] [--drop-prob=P]\n"
        "  [--fault-horizon-ms=N]\n"
        "  app params: --n --split (queens), --config (ida),\n"
        "  --cutoff --steps (gromos), --matrix --block (gauss),\n"
        "  --roots --spawn --depth --work-model --mean-work --segments\n"
        "  --seed (synthetic)\n"
        "  [--trace-cache=DIR]  cache built traces under DIR (overrides\n"
        "  the RIPS_TRACE_CACHE env var)\n");
    return 0;
  }
  args.check_known({
      "help", "app", "nodes", "strategy", "sched", "policy", "weighted",
      "lifo", "periodic-us", "timeline", "timeline-width", "trace-out",
      "metrics-out", "monitors", "fault-seed", "crash-mtbf-ms", "drop-prob",
      "fault-horizon-ms", "n", "split", "config", "cutoff", "steps", "matrix",
      "block", "roots", "spawn", "depth", "work-model", "mean-work",
      "segments", "seed", "ns-per-work", "topo", "rid-u", "jobs",
      "trace-cache", "live-status", "timeseries-out", "blackbox",
  });

  // Bad flag values exit 2 (main's handler) before any work starts, and
  // before --blackbox arms the flight recorder.
  const std::string strategy = args.get("strategy", "rips");
  const std::vector<sweep::Kind> kinds = parse_strategies(strategy);
  const core::RipsConfig config = parse_policy(args);
  const bool compare =
      strategy == "all" || strategy.find(',') != std::string::npos;
  if (compare && (args.has("topo") || args.has("sched"))) {
    throw std::invalid_argument(
        "--topo and --sched apply to single runs only: the comparison mode "
        "(--strategy=all or a list) runs every strategy on the paper mesh "
        "with MWA");
  }

  if (args.has("trace-cache")) {
    apps::set_trace_cache_dir(args.get("trace-cache", ""));
  }
  const apps::TaskTrace trace = apps::cached_trace(
      trace_cache_key(args), [&] { return build_app(args); });
  sim::CostModel cost;
  cost.ns_per_work = args.get_double(
      "ns-per-work", default_ns_per_work(args.get("app", "queens")));
  const i32 nodes = static_cast<i32>(args.get_int("nodes", 32));

  std::printf("app: %s\n", trace.summary().c_str());

  if (compare) return run_compare(args, trace, cost, nodes, config, kinds);

  const bool want_timeline = args.get_bool("timeline", false);
  const bool want_trace = args.has("trace-out");
  sim::RunMetrics metrics;

  // Observability sinks (docs/OBSERVABILITY.md). All optional; attaching
  // them never changes the metrics. The --timeline chart is drawn from the
  // trace, so a charted run keeps every event instead of a bounded ring.
  obs::TraceSession trace_session =
      want_timeline
          ? obs::TraceSession(nodes, std::numeric_limits<size_t>::max())
          : obs::TraceSession(nodes);
  obs::InvariantMonitor monitor;
  obs::Obs o;
  if (want_trace || want_timeline) o.trace = &trace_session;
  if (args.get_bool("monitors", false)) o.monitor = &monitor;

  // Live telemetry (docs/OBSERVABILITY.md, "Live telemetry"): the bus is
  // attached only when at least one subscriber exists, so the default run
  // keeps the null-sink fast path.
  obs::TelemetryBus bus;
  obs::TimeSeriesSampler sampler;
  obs::LiveStatusPrinter live;
  obs::FlightRecorder recorder;
  const bool want_timeseries = args.has("timeseries-out");
  const bool want_blackbox = args.has("blackbox");
  const std::string label =
      args.get("app", "queens") + "/" + strategy + "/n" + std::to_string(nodes);
  if (want_timeseries) {
    sampler.set_label(label);
    bus.subscribe(&sampler);
  }
  if (args.get_bool("live-status", args.has("live-status"))) {
    bus.subscribe(&live);
  }
  if (want_blackbox) {
    // Flight recorder: bounded rings of recent phases/events, auto-dumped
    // on faults and monitor violations, and on aborts/fatal signals via
    // the process hooks (RIPS_CHECK failures abort, so engine invariant
    // trips leave a black box too).
    std::string dump_path = args.get("blackbox", "rips-blackbox.json");
    if (dump_path.empty()) dump_path = "rips-blackbox.json";
    recorder.set_dump_path(dump_path);
    recorder.set_label(label);
    recorder.arm_process_hooks();
    bus.subscribe(&recorder);
  }
  if (!bus.empty()) o.bus = &bus;

  if (strategy == "rips") {
    auto sched = sched::make_scheduler(args.get("sched", "mwa"), nodes);
    core::RipsEngine engine(*sched, cost, config);
    engine.set_obs(o);

    // Deterministic fault injection: expand the seed + knobs into a plan.
    sim::FaultPlan faults;
    if (args.has("fault-seed")) {
      sim::FaultSpec spec;
      spec.horizon_ns = args.get_int("fault-horizon-ms", 1000) * 1'000'000;
      spec.crash_mtbf_ns = args.get_double("crash-mtbf-ms", 0.0) * 1e6;
      spec.drop_prob = args.get_double("drop-prob", 0.0);
      faults = sim::FaultPlan::generate(
          static_cast<u64>(args.get_int("fault-seed", 1)), nodes, spec);
      engine.set_fault_plan(&faults);
      std::printf("faults: %s\n", faults.summary().c_str());
    }

    metrics = engine.run(trace);
    std::printf("RIPS %s on %s, scheduler %s\n", config.name().c_str(),
                sched->topology().name().c_str(), sched->name().c_str());
    std::printf("%s\n", metrics.summary().c_str());
    if (args.has("metrics-out")) {
      const std::string path = args.get("metrics-out", "metrics.json");
      RIPS_CHECK_MSG(engine.metrics_registry().write_json(path),
                     "failed to write the metrics JSON");
      std::printf("wrote %s\n", path.c_str());
    }
  } else {
    // The comparison sweep's strategy (Random's seed included), on any
    // --topo.
    const auto topo = topo::make_topology(args.get("topo", "mesh"), nodes);
    const std::unique_ptr<balance::Strategy> impl =
        sweep::make_dynamic_strategy(kinds.front(),
                                     args.get_double("rid-u", 0.4));
    balance::DynamicEngine engine(*topo, cost, *impl);
    engine.set_obs(o);
    metrics = engine.run(trace);
    std::printf("%s on %s\n", impl->name().c_str(), topo->name().c_str());
    std::printf("%s\n", metrics.summary().c_str());
    if (args.has("metrics-out")) {
      const std::string path = args.get("metrics-out", "metrics.json");
      RIPS_CHECK_MSG(engine.metrics_registry().write_json(path),
                     "failed to write the metrics JSON");
      std::printf("wrote %s\n", path.c_str());
    }
  }

  if (args.get_bool("live-status", args.has("live-status"))) live.finish();

  std::printf("Th=%.3fs Ti=%.3fs speedup=%.1f optimal-bound=%.1f%%\n",
              metrics.overhead_s(), metrics.idle_s(), metrics.speedup(),
              100.0 * trace.optimal_efficiency(nodes));
  if (want_timeline) {
    const i32 width = static_cast<i32>(args.get_int("timeline-width", 100));
    std::fputs(obs::utilization_chart(trace_session, width).c_str(), stdout);
  }
  if (want_trace) {
    const std::string path = args.get("trace-out", "run.trace.json");
    RIPS_CHECK_MSG(trace_session.write_json(path),
                   "failed to write the trace JSON");
    std::printf("wrote %s (%zu events, %llu dropped) — open in "
                "ui.perfetto.dev\n",
                path.c_str(), trace_session.size(),
                static_cast<unsigned long long>(trace_session.dropped()));
  }
  if (want_timeseries) {
    std::string path = args.get("timeseries-out", "run.timeseries.json");
    if (path.empty()) path = "run.timeseries.json";
    RIPS_CHECK_MSG(sampler.write_json(path),
                   "failed to write the time series");
    std::printf("wrote %s (%llu samples, %zu events)\n", path.c_str(),
                static_cast<unsigned long long>(sampler.seen()),
                sampler.events().size());
  }
  if (want_blackbox) {
    if (recorder.dumps_written() > 0) {
      std::printf("black box dumped to %s (inspect with trace_tool "
                  "blackbox)\n",
                  recorder.dump_path().c_str());
    }
    obs::FlightRecorder::disarm_process_hooks();
  }
  if (o.monitor != nullptr) {
    std::fputs(monitor.report().c_str(), stdout);
    if (!monitor.ok()) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(Args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "rips_cli: %s\n", e.what());
    return 2;
  }
}
