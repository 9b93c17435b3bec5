// serve_soak — deterministic serving-load soak (docs/SERVING.md).
//
// Drives RipsEngine::run_online through an apps::ScriptedSource: M jobs
// across T tenants arriving on a fixed simulated-time schedule, so the
// whole soak is bit-reproducible (same flags => byte-identical JSON) and
// is gated by bench_diff's exact diff like every other suite. This is
// the nightly stand-in for hours of real rips_served uptime: the
// multiplexing, per-job accounting and latency distribution under
// sustained multi-tenant load, without sockets or wall clocks.
//
//   ./serve_soak --json=BENCH_serve.json          # committed baseline
//   ./serve_soak --jobs-total=48 --tenants=6 --nodes=128
//
// Reported per job: submit-to-completion latency (arrival -> last task,
// simulated); reported per run: p50/p95/p99/mean latency and the Jain
// fairness index over tenant progress rates.
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/online_source.hpp"
#include "apps/synthetic.hpp"
#include "obs/monitors.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "sim/metrics.hpp"
#include "topo/topology.hpp"
#include "util/args.hpp"
#include "util/check.hpp"

namespace {

using namespace rips;

/// The soak as its one rips-bench-v1 row: job arrivals are the submit
/// times its latency members are measured from.
sim::BenchRow run_soak(i32 nodes, i32 jobs_total, i32 tenants,
                       SimTime interarrival_ns, u64 seed, bool monitors) {
  // Fixed schedule: job k belongs to tenant k % T and arrives at
  // k * interarrival. Sizes vary by seed so tenants are not symmetric.
  std::vector<apps::ScriptedJob> schedule;
  schedule.reserve(static_cast<size_t>(jobs_total));
  for (i32 k = 0; k < jobs_total; ++k) {
    apps::SyntheticConfig config;
    config.num_roots = 8 + (k % 5) * 6;
    config.max_depth = 3 + (k % 3);
    config.spawn_prob = 0.45;
    config.max_branch = 3;
    config.mean_work = 2000 + (k % 7) * 500;
    config.work_model = 2;
    config.num_segments = 1;
    apps::ScriptedJob job;
    job.name = "tenant-" + std::to_string(k % tenants) + "/job-" +
               std::to_string(k);
    job.arrival_ns = static_cast<SimTime>(k) * interarrival_ns;
    job.trace = apps::build_synthetic_trace(config, seed + static_cast<u64>(k));
    schedule.push_back(std::move(job));
  }
  apps::ScriptedSource source(std::move(schedule));

  const topo::MeshShape shape = topo::paper_mesh_shape(nodes);
  topo::Mesh mesh(shape.rows, shape.cols);
  sched::Mwa mwa(mesh);
  sim::CostModel cost;
  cost.ns_per_work = 500.0;
  core::RipsEngine engine(mwa, cost, core::RipsConfig{});
  engine.set_phase_snapshots(false);
  obs::InvariantMonitor monitor;
  obs::Obs o;
  if (monitors) o.monitor = &monitor;
  engine.set_obs(o);

  sim::BenchRow row;
  row.workload = "scripted-soak";
  row.group = "serve";
  row.scheduler = "RIPS";
  row.policy = "any-lazy";
  row.nodes = nodes;
  row.metrics = engine.run_online(source);
  for (size_t j = 0; j < row.metrics.jobs.size(); ++j) {
    row.metrics.jobs[j].name = source.jobs().name(static_cast<i32>(j));
    row.job_submit_ns.push_back(source.arrival_ns(static_cast<i32>(j)));
  }
  row.monitors_ok = !monitors || monitor.ok();
  row.registry_json = engine.metrics_registry().to_json();
  return row;
}

int run_soak_cli(const Args& args) {
  if (args.has("help")) {
    std::printf(
        "usage: serve_soak [--nodes=64] [--jobs-total=24] [--tenants=4]\n"
        "  [--interarrival-ms=20] [--seed=7] [--monitors=1]\n"
        "  [--json[=BENCH_serve.json]]\n"
        "deterministic multi-tenant serving soak over the online engine\n"
        "(docs/SERVING.md); emits a rips-bench-v1 document with per-job\n"
        "rows, Jain fairness and latency percentiles.\n");
    return 0;
  }
  args.check_known({"help", "nodes", "jobs-total", "tenants",
                    "interarrival-ms", "seed", "monitors", "json"});

  const i32 nodes = static_cast<i32>(args.get_int("nodes", 64));
  const i32 jobs_total = static_cast<i32>(args.get_int("jobs-total", 24));
  const i32 tenants = static_cast<i32>(args.get_int("tenants", 4));
  const SimTime interarrival_ns =
      args.get_int("interarrival-ms", 20) * 1'000'000;
  const u64 seed = static_cast<u64>(args.get_int("seed", 7));
  const bool monitors = args.get_bool("monitors", true);
  if (jobs_total < 2 || tenants < 1 || tenants > jobs_total) {
    throw std::invalid_argument(
        "need --jobs-total >= 2 and 1 <= --tenants <= --jobs-total");
  }

  const sim::BenchRow row =
      run_soak(nodes, jobs_total, tenants, interarrival_ns, seed, monitors);
  const sim::RunMetrics& m = row.metrics;
  const sim::JobLatency lat = sim::job_latency(m, row.job_submit_ns);
  const auto ms = [](SimTime ns) { return 1e-6 * static_cast<double>(ns); };

  std::printf("serve_soak: %d jobs / %d tenants on %d nodes\n", jobs_total,
              tenants, nodes);
  std::printf("  makespan %.3f s, %llu tasks, efficiency %.4f\n", m.exec_s(),
              static_cast<unsigned long long>(m.num_tasks), m.efficiency());
  std::printf("  latency p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  mean %.3f ms\n",
              ms(lat.p50_ns), ms(lat.p95_ns), ms(lat.p99_ns), ms(lat.mean_ns));
  std::printf("  fairness (Jain) %.4f, monitors %s\n", m.job_fairness(),
              row.monitors_ok ? "clean" : "VIOLATED");

  if (args.has("json")) {
    // Bare `--json` (no value) selects the default artifact name.
    std::string path = args.get("json", "BENCH_serve.json");
    if (path.empty()) path = "BENCH_serve.json";
    std::ofstream file(path);
    RIPS_CHECK_MSG(file.good(), "cannot open --json output file");
    file << sim::bench_doc_json("serve-soak", false, nodes, {row}) << "\n";
    std::fprintf(stderr, "serve_soak: wrote %s\n", path.c_str());
  }
  return row.monitors_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Unknown flags and bad flag values exit 2 with one line naming the flag.
  try {
    return run_soak_cli(Args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "serve_soak: %s\n", e.what());
    return 2;
  }
}
