// Blocked phases (docs/PERFORMANCE.md, "Threads inside a run"): the host
// pool's contract, and the RIPS engine's blocked passes and lane replay
// against a one-block run of the same trace.
//
// A run's blocks depend on its phases only; the host pool decides where
// they run. So a run on the pool, the same run inside a sweep worker
// (blocks inline) and a one-block run (the full measuring pass keeps one
// block) must agree on every metric, every registry value and every phase
// sample. Multi-threaded on purpose: the CI TSan lane runs this binary.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/synthetic.hpp"
#include "exec/sweep/sweep.hpp"
#include "obs/monitors.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "serve/job_server.hpp"
#include "topo/topology.hpp"
#include "util/host_pool.hpp"

namespace rips {
namespace {

// Declared first so that, run in file order, it sees a process whose pool
// has never started: a daemon's runs carry a job map, which keeps one block.
TEST(HostPool, JobServerSessionStartsNoPoolThread) {
  const size_t threads_before = host_pool::threads_started();
  const size_t dispatches_before = host_pool::dispatches();
  serve::ServeOptions options;
  options.nodes = 256;
  serve::JobServer server(options);
  server.start();
  // One wide job: its first phases queue well over the split threshold.
  serve::SubmitParams job;
  job.roots = 20000;
  job.depth = 2;
  job.branch = 2;
  job.spawn = 0.5;
  const auto submitted = server.submit(job);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  ASSERT_GE(submitted.tasks, 20000u);
  server.drain();
  EXPECT_TRUE(server.monitors_ok());
  EXPECT_EQ(server.result().num_tasks, submitted.tasks);
  EXPECT_EQ(host_pool::threads_started(), threads_before);
  EXPECT_EQ(host_pool::dispatches(), dispatches_before);
}

TEST(HostPool, RunsEveryIndexExactlyOnce) {
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  auto body = [&](size_t i) { hits[i].fetch_add(1); };
  for (int rep = 0; rep < 20; ++rep) host_pool::run(kCount, body);
  for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 20) << i;
  host_pool::run(0, body);  // no index, no call
  const size_t cpus = std::thread::hardware_concurrency();
  if (cpus > 0) {
    EXPECT_LT(host_pool::threads_started(), cpus);
  }
}

TEST(HostPool, AThrowingIndexLeavesTheOthersRunningAndIsRethrown) {
  std::vector<std::atomic<int>> hits(64);
  auto body = [&](size_t i) {
    hits[i].fetch_add(1);
    if (i == 7) throw std::runtime_error("index 7");
  };
  EXPECT_THROW(host_pool::run(hits.size(), body), std::runtime_error);
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // The pool is free again afterwards.
  auto count = [&](size_t i) { hits[i].fetch_add(1); };
  host_pool::run(hits.size(), count);
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 2) << i;
}

TEST(HostPool, NestedRunsExecuteInline) {
  std::vector<std::atomic<int>> hits(16 * 8);
  auto outer = [&](size_t i) {
    auto inner = [&](size_t j) { hits[i * 8 + j].fetch_add(1); };
    host_pool::run(8, inner);
  };
  host_pool::run(16, outer);
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(HostPool, MarkedThreadsAndConcurrentCallersRunEveryIndex) {
  // A marked thread runs its indices itself; two unmarked callers share
  // the pool (one of them runs inline while the other holds it).
  std::vector<std::atomic<int>> hits(3 * 512);
  const auto caller = [&](size_t slot, bool mark) {
    if (mark) host_pool::mark_worker_thread();
    const std::thread::id self = std::this_thread::get_id();
    std::atomic<bool> all_here{true};
    auto body = [&](size_t i) {
      hits[slot * 512 + i].fetch_add(1);
      if (std::this_thread::get_id() != self) all_here = false;
    };
    for (int rep = 0; rep < 10; ++rep) host_pool::run(512, body);
    if (mark) {
      EXPECT_TRUE(all_here.load()) << "a marked thread ran on the pool";
    }
  };
  std::thread marked(caller, 0, true);
  std::thread a(caller, 1, false);
  std::thread b(caller, 2, false);
  marked.join();
  a.join();
  b.join();
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 10) << i;
}

/// Records every phase sample the bus publishes, system and user alike.
class SampleLog final : public obs::TelemetrySubscriber {
 public:
  void on_phase(const obs::PhaseSample& s) override { samples.push_back(s); }
  std::vector<obs::PhaseSample> samples;
};

struct Outcome {
  sim::RunMetrics metrics;
  std::string registry;
  std::vector<obs::PhaseSample> samples;
  bool monitors_ok = false;
  size_t max_blocks = 0;
  size_t max_lane_blocks = 0;
  u64 grown_regions = 0;
};

Outcome run_engine(const apps::TaskTrace& trace, const core::RipsConfig& config,
                   bool one_block, bool zero_growth_room = false) {
  topo::Mesh mesh(16, 16);
  sched::Mwa mwa(mesh);
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  core::RipsEngine engine(mwa, cost, config);
  obs::InvariantMonitor monitor;
  obs::TelemetryBus bus;
  SampleLog log;
  bus.subscribe(&log);
  obs::Obs o;
  o.monitor = &monitor;
  o.bus = &bus;
  engine.set_obs(o);
  engine.set_full_measure_pass(one_block);
  engine.set_zero_growth_room(zero_growth_room);
  Outcome out;
  out.metrics = engine.run(trace);
  out.registry = engine.metrics_registry().to_json();
  out.samples = log.samples;
  out.monitors_ok = monitor.ok();
  out.max_blocks = engine.max_blocks();
  out.max_lane_blocks = engine.max_lane_blocks();
  out.grown_regions = engine.grown_regions();
  return out;
}

void expect_same_samples(const std::vector<obs::PhaseSample>& a,
                         const std::vector<obs::PhaseSample>& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    const obs::PhaseSample& x = a[i];
    const obs::PhaseSample& y = b[i];
    const std::string at = what + " sample " + std::to_string(i);
    EXPECT_EQ(x.kind, y.kind) << at;
    EXPECT_EQ(x.phase, y.phase) << at;
    EXPECT_EQ(x.t0, y.t0) << at;
    EXPECT_EQ(x.t1, y.t1) << at;
    EXPECT_EQ(x.tasks, y.tasks) << at;
    EXPECT_EQ(x.moved, y.moved) << at;
    EXPECT_EQ(x.imbalance, y.imbalance) << at;
    EXPECT_EQ(x.comm_steps, y.comm_steps) << at;
    EXPECT_EQ(x.rts_total, y.rts_total) << at;
    EXPECT_EQ(x.retries, y.retries) << at;
    EXPECT_EQ(x.live_nodes, y.live_nodes) << at;
    EXPECT_EQ(x.drain_ns, y.drain_ns) << at;
    EXPECT_EQ(x.executed_total, y.executed_total) << at;
    EXPECT_EQ(x.job, y.job) << at;
  }
}

void expect_same_run(Outcome a, const Outcome& b, const std::string& what) {
  a.metrics.used_fast_measure = b.metrics.used_fast_measure;
  EXPECT_EQ(a.metrics, b.metrics) << what;
  EXPECT_EQ(a.registry, b.registry) << what;
  EXPECT_EQ(a.monitors_ok, b.monitors_ok) << what;
  expect_same_samples(a.samples, b.samples, what);
}

/// A two-segment trace whose every segment starts with more roots than
/// the split threshold, so every policy splits its first phases.
apps::TaskTrace wide_trace() {
  apps::SyntheticConfig wide;
  wide.num_roots = 20000;
  wide.max_depth = 4;
  wide.spawn_prob = 0.4;
  wide.max_branch = 3;
  wide.num_segments = 2;
  return apps::build_synthetic_trace(wide, /*seed=*/11);
}

// {ANY, ALL} x {Lazy, Eager} x {FIFO, LIFO} x {count, weighted} on 256
// nodes over wide_trace(). A split system phase sizes its regions and
// replays MWA's plan lane by lane; a one-block run replays it in order.
TEST(BlockedPhases, MatchOneBlockRunsAndSweepWorkerRuns) {
  const apps::TaskTrace trace = wide_trace();
  std::vector<core::RipsConfig> configs;
  for (const auto global :
       {core::GlobalPolicy::kAny, core::GlobalPolicy::kAll}) {
    for (const auto local :
         {core::LocalPolicy::kLazy, core::LocalPolicy::kEager}) {
      for (const bool lifo : {false, true}) {
        for (const bool weighted : {false, true}) {
          core::RipsConfig config;
          config.global = global;
          config.local = local;
          config.lifo_execution = lifo;
          config.weighted = weighted;
          configs.push_back(config);
        }
      }
    }
  }
  // The same runs inside a two-wide sweep: marked workers run every block
  // inline, so these never touch the pool.
  std::vector<Outcome> nested(configs.size());
  const size_t dispatches_before = host_pool::dispatches();
  sweep::parallel_for(configs.size(), 2, [&](size_t i) {
    nested[i] = run_engine(trace, configs[i], /*one_block=*/false);
  });
  EXPECT_EQ(host_pool::dispatches(), dispatches_before)
      << "a run inside a sweep worker used the pool";

  for (size_t i = 0; i < configs.size(); ++i) {
    const std::string what = configs[i].name() +
                             (configs[i].lifo_execution ? " LIFO" : " FIFO") +
                             (configs[i].weighted ? " weighted" : " count");
    const Outcome blocked = run_engine(trace, configs[i], false);
    const Outcome one = run_engine(trace, configs[i], true);
    EXPECT_GT(blocked.max_blocks, 1u) << what << ": no pass was split";
    EXPECT_GT(blocked.max_lane_blocks, 1u)
        << what << ": no system phase took the lane path";
    EXPECT_EQ(one.max_blocks, 1u) << what;
    EXPECT_EQ(one.max_lane_blocks, 1u) << what;
    EXPECT_EQ(blocked.metrics.num_tasks, trace.size()) << what;
    EXPECT_TRUE(blocked.monitors_ok) << what;
    expect_same_run(blocked, one, what + " vs one block");
    expect_same_run(blocked, nested[i], what + " vs sweep worker");
  }
}

// Weighted regions grow into room reserved before the partition; with no
// room, every growth stops its lane block until the arena grows between
// runs of the stage, and the block resumes at the transfer it stopped
// before. Region placement then differs, region contents may not.
TEST(BlockedPhases, ZeroGrowthRoomMatchesTheNormalRun) {
  const apps::TaskTrace trace = wide_trace();
  for (const auto local : {core::LocalPolicy::kLazy, core::LocalPolicy::kEager}) {
    for (const bool lifo : {false, true}) {
      core::RipsConfig config;
      config.local = local;
      config.lifo_execution = lifo;
      config.weighted = true;
      const std::string what = config.name() + (lifo ? " LIFO" : " FIFO");
      const Outcome normal = run_engine(trace, config, /*one_block=*/false);
      const Outcome tight = run_engine(trace, config, /*one_block=*/false,
                                       /*zero_growth_room=*/true);
      EXPECT_GT(tight.max_lane_blocks, 1u) << what;
      EXPECT_GT(tight.grown_regions, 0u)
          << what << ": no region grew, so no block stopped";
      EXPECT_EQ(tight.grown_regions, normal.grown_regions) << what;
      expect_same_run(tight, normal, what + " zero room vs normal");
      // The one-lane path stops and resumes through the same body.
      const Outcome one = run_engine(trace, config, /*one_block=*/true,
                                     /*zero_growth_room=*/true);
      expect_same_run(one, normal, what + " one block, zero room vs normal");
    }
  }
}

}  // namespace
}  // namespace rips
