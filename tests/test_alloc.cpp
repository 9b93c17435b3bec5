// Steady-state allocation regression tests (docs/PERFORMANCE.md, Scaling).
//
// This binary replaces the global allocator with a counting shim so tests
// can assert the engines' hot loops stop touching the heap once their
// arenas are warm. The contract under test:
//
//   * RipsEngine: with monitors detached and phase snapshots disabled, a
//     mid-run system phase (and the user phase leading into it) performs
//     ZERO heap allocations on a repeat run — every vector the phase loop
//     touches is a reused member arena. That holds with a telemetry bus
//     and a job map attached too: publishing phase records and the
//     per-job breakdown allocates nothing. It holds for blocked phases on
//     the host pool as well, the weighted lane replay included: each
//     block's scratch is reused, and the counter sees every thread's
//     allocations.
//   * DynamicEngine: the per-steal message path recycles task buffers, so
//     a steady-state window of a repeat run is likewise allocation-free.
//   * LiveView: a degraded machine's survivor view never asks for memory
//     quadratic in its size; the shim also records the largest single
//     request, which is what an all-pairs table would show up as.
//
// "Repeat run" matters: the first run grows the arenas to their high-water
// marks; the contract is about the steady state those arenas enable, which
// is what a long trace spends >99% of its phases in.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "apps/synthetic.hpp"
#include "balance/engine.hpp"
#include "balance/random_alloc.hpp"
#include "obs/monitors.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "topo/live_view.hpp"
#include "topo/topology.hpp"

// ---------------------------------------------------------------------------
// Counting allocator shim. Test-binary-local: linking these definitions
// into the test executable overrides the global operator new/delete for
// everything in the process (gtest included), which is exactly what makes
// the counter trustworthy — nothing can allocate around it.
// ---------------------------------------------------------------------------

namespace {
std::atomic<unsigned long long> g_allocs{0};
// Largest single request. The tests that read it run single-threaded, so a
// plain load-compare-store is exact for them.
std::atomic<std::size_t> g_largest_alloc{0};

// Out of line so the operator new below stays small enough for GCC to
// inline at -O2; when it is not inlined, -Wmismatched-new-delete misreads
// the inlined free() in operator delete as a mismatch.
[[gnu::noinline]] void count_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size > g_largest_alloc.load(std::memory_order_relaxed)) {
    g_largest_alloc.store(size, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t size) {
  count_alloc(size);
  if (size == 0) size = 1;
  return std::malloc(size);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  count_alloc(size);
  if (size == 0) size = 1;
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded);
}
}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

namespace rips::core {
namespace {

sim::CostModel test_cost() {
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  return cost;
}

apps::TaskTrace alloc_trace(u64 target_tasks) {
  return apps::build_synthetic_trace(apps::scale_config(target_tasks),
                                     /*seed=*/7);
}

/// Phase-probe context: one allocator-counter reading per system phase.
/// The marks vector is reserved up front so recording a mark never
/// allocates (which would poison the very windows being measured).
struct PhaseMarks {
  std::vector<unsigned long long> marks;
  static void record(void* ctx, u64 /*phase_idx*/) {
    static_cast<PhaseMarks*>(ctx)->marks.push_back(
        g_allocs.load(std::memory_order_relaxed));
  }
};

/// Subscribes to everything and does nothing: every publish walks the bus.
class NullSubscriber final : public obs::TelemetrySubscriber {};

// With monitors detached and phase snapshots off, a warm RipsEngine
// performs ZERO heap allocations across every steady-state window (user
// phase + following system phase) of a repeat run. The first and last
// windows are excluded: the first includes segment-root release, the last
// includes end-of-run accounting. `with_bus_and_jobs` attaches a no-op
// subscriber's bus and a 3-job map; `lend_costs` runs both runs on a
// drain-cost table built beforehand, the way a sweep lends one.
// `grown_regions`, `max_blocks` and `max_lane_blocks` receive the measured
// run's introspection.
void expect_steady_state_allocates_nothing(const RipsConfig& config,
                                           bool with_bus_and_jobs,
                                           u64* grown_regions = nullptr,
                                           u64 target_tasks = 20000,
                                           size_t* max_blocks = nullptr,
                                           size_t* max_lane_blocks = nullptr,
                                           bool lend_costs = false) {
  // Many nodes relative to the trace: frequent drains mean frequent
  // system phases, which is what gives the test its windows (~19 with
  // this trace/mesh pairing).
  const apps::TaskTrace trace = alloc_trace(target_tasks);
  topo::Mesh mesh(16, 16);
  sched::Mwa mwa(mesh);
  RipsEngine engine(mwa, test_cost(), config);
  engine.set_phase_snapshots(false);

  NullSubscriber subscriber;
  obs::TelemetryBus bus;
  bus.subscribe(&subscriber);
  std::vector<i32> job_of(trace.size());
  for (size_t i = 0; i < job_of.size(); ++i) {
    job_of[i] = static_cast<i32>(i % 3);
  }
  if (with_bus_and_jobs) {
    obs::Obs o;
    o.bus = &bus;
    engine.set_obs(o);
    engine.set_job_map(&job_of, 3);
  }

  TaskCosts costs;
  if (lend_costs) {
    costs.reset(trace, test_cost(), config.local);
    costs.extend();
  }
  const TaskCosts* lent = lend_costs ? &costs : nullptr;

  PhaseMarks probe;
  probe.marks.reserve(1 << 16);
  engine.set_phase_probe(&PhaseMarks::record, &probe);

  // Run 1 grows every arena to its high-water mark.
  const sim::RunMetrics warm = engine.run(trace, lent);
  ASSERT_EQ(warm.num_tasks, trace.size());
  const size_t phases = probe.marks.size();
  ASSERT_GE(phases, 4u) << "trace too small to expose steady-state windows";

  // Run 2 is the measured run.
  probe.marks.clear();
  const sim::RunMetrics metrics = engine.run(trace, lent);
  ASSERT_EQ(metrics.num_tasks, trace.size());
  ASSERT_EQ(probe.marks.size(), phases) << "repeat run must be deterministic";
  EXPECT_EQ(engine.costs_built(), lend_costs ? 0u : trace.size());

  for (size_t i = 1; i + 1 < phases; ++i) {
    EXPECT_EQ(probe.marks[i] - probe.marks[i - 1], 0u)
        << "heap allocation in steady-state window ending at phase " << i;
  }
  if (grown_regions != nullptr) *grown_regions = engine.grown_regions();
  if (max_blocks != nullptr) *max_blocks = engine.max_blocks();
  if (max_lane_blocks != nullptr) *max_lane_blocks = engine.max_lane_blocks();
}

TEST(AllocFree, RipsEngineSteadyStatePhasesAllocateNothing) {
  expect_steady_state_allocates_nothing(RipsConfig{},
                                        /*with_bus_and_jobs=*/false);
}

TEST(AllocFree, BusAndJobMapKeepSteadyStatePhasesAllocationFree) {
  expect_steady_state_allocates_nothing(RipsConfig{},
                                        /*with_bus_and_jobs=*/true);
}

// Weighted mode sizes its replay regions from an estimate and moves a
// region that fills to the arena's end; a warm repeat run must find the
// arena, moved regions included, already large enough.
TEST(AllocFree, WeightedReplayReusesTheArenaOnAWarmRun) {
  RipsConfig config;
  config.weighted = true;
  u64 grown = 0;
  expect_steady_state_allocates_nothing(config, /*with_bus_and_jobs=*/false,
                                        &grown);
  EXPECT_GT(grown, 0u)
      << "no region filled: the test no longer covers grown regions";
}

// LIFO execution takes the spawned stack before the span's back; its
// leftovers go through the same two RTE buffers.
TEST(AllocFree, LifoSteadyStatePhasesAllocateNothing) {
  RipsConfig config;
  config.lifo_execution = true;
  expect_steady_state_allocates_nothing(config, /*with_bus_and_jobs=*/true);
}

// Phases above the split threshold run their passes over blocks on the
// host pool: the pool's first dispatch starts its threads during the warm
// run, and the repeat run's blocks reuse their scratch.
TEST(AllocFree, BlockedPhasesOnTheHostPoolAllocateNothing) {
  size_t blocks = 0;
  size_t lane_blocks = 0;
  expect_steady_state_allocates_nothing(RipsConfig{},
                                        /*with_bus_and_jobs=*/false,
                                        /*grown_regions=*/nullptr,
                                        /*target_tasks=*/200000, &blocks,
                                        &lane_blocks);
  EXPECT_GT(blocks, 1u) << "no phase split: the test no longer covers blocks";
  EXPECT_GT(lane_blocks, 1u)
      << "no replay ran on lanes: the test no longer covers them";
}

// A split weighted phase replays MWA's lanes and grows regions into room
// bump-allocated from the arena: the warm run's arena already holds it.
TEST(AllocFree, WeightedBlockedPhasesAllocateNothing) {
  RipsConfig config;
  config.weighted = true;
  u64 grown = 0;
  size_t lane_blocks = 0;
  expect_steady_state_allocates_nothing(config, /*with_bus_and_jobs=*/false,
                                        &grown, /*target_tasks=*/200000,
                                        /*max_blocks=*/nullptr, &lane_blocks);
  EXPECT_GT(lane_blocks, 1u)
      << "no replay ran on lanes: the test no longer covers them";
  EXPECT_GT(grown, 0u)
      << "no region grew: the test no longer covers the growth room";
}

// A sweep lends the RIPS rows of one trace and local policy one
// drain-cost table: a warm run that reads it allocates nothing in steady
// state, in count and weighted mode (weighted loads read the trace's work,
// no per-task weight array).
TEST(AllocFree, LentCostTableKeepsSteadyStatePhasesAllocationFree) {
  for (const bool weighted : {false, true}) {
    RipsConfig config;
    config.weighted = weighted;
    expect_steady_state_allocates_nothing(
        config, /*with_bus_and_jobs=*/false, /*grown_regions=*/nullptr,
        /*target_tasks=*/20000, /*max_blocks=*/nullptr,
        /*max_lane_blocks=*/nullptr, /*lend_costs=*/true);
  }
}

// Monitor `before` snapshots are the one per-phase structure the engine
// still builds on demand — and only when a monitor is attached.
TEST(AllocFree, MonitorSnapshotsBuiltOnlyWhenMonitorAttached) {
  const apps::TaskTrace trace = alloc_trace(2000);
  topo::Mesh mesh(4, 4);
  {
    sched::Mwa mwa(mesh);
    RipsEngine engine(mwa, test_cost(), RipsConfig{});
    engine.run(trace);
    EXPECT_FALSE(engine.built_monitor_snapshots());
  }
  {
    sched::Mwa mwa(mesh);
    RipsEngine engine(mwa, test_cost(), RipsConfig{});
    obs::InvariantMonitor monitor;
    obs::Obs o;
    o.monitor = &monitor;
    engine.set_obs(o);
    engine.run(trace);
    EXPECT_TRUE(engine.built_monitor_snapshots());
    EXPECT_TRUE(monitor.ok()) << monitor.report();
  }
}

// The drain-sum fast path and the original O(subtree) measuring pass must
// be observationally identical — same metrics, same phase count. The fast
// path is a pure strength reduction, never a behavior change.
TEST(AllocFree, FastAndFullMeasurePassesAgreeExactly) {
  const apps::TaskTrace trace = alloc_trace(3000);
  topo::Mesh mesh(4, 4);
  for (const LocalPolicy local : {LocalPolicy::kLazy, LocalPolicy::kEager}) {
    RipsConfig config;
    config.local = local;

    sched::Mwa mwa_fast(mesh);
    RipsEngine fast(mwa_fast, test_cost(), config);
    const sim::RunMetrics a = fast.run(trace);

    sched::Mwa mwa_full(mesh);
    RipsEngine full(mwa_full, test_cost(), config);
    full.set_full_measure_pass(true);
    const sim::RunMetrics b = full.run(trace);

    EXPECT_EQ(a.makespan_ns, b.makespan_ns) << config.name();
    EXPECT_EQ(a.total_busy_ns, b.total_busy_ns) << config.name();
    EXPECT_EQ(a.total_overhead_ns, b.total_overhead_ns) << config.name();
    EXPECT_EQ(a.total_idle_ns, b.total_idle_ns) << config.name();
    EXPECT_EQ(a.system_phases, b.system_phases) << config.name();
    EXPECT_EQ(a.nonlocal_tasks, b.nonlocal_tasks) << config.name();
  }
}

}  // namespace
}  // namespace rips::core

namespace rips::balance {
namespace {

/// Delegates to RandomAlloc while recording the allocator counter at every
/// spawn — the DynamicEngine equivalent of the RIPS phase probe.
class CountingRandom final : public Strategy {
 public:
  explicit CountingRandom(u64 seed) : inner_(seed) {}

  std::string name() const override { return inner_.name(); }
  void reset(DynamicEngine& engine) override { inner_.reset(engine); }
  void on_spawn(DynamicEngine& engine, NodeId node, TaskId task) override {
    marks.push_back(g_allocs.load(std::memory_order_relaxed));
    inner_.on_spawn(engine, node, task);
  }
  void on_message(DynamicEngine& engine, NodeId node,
                  const Message& msg) override {
    inner_.on_message(engine, node, msg);
  }

  std::vector<unsigned long long> marks;

 private:
  RandomAlloc inner_;
};

// The pooled message buffers make the dynamic engine's steal path
// allocation-free once warm: the middle third of a repeat run's spawns —
// each window spanning task execution, sends, deliveries and event-queue
// churn — must not touch the heap.
TEST(AllocFree, DynamicEngineSteadyWindowAllocatesNothing) {
  const apps::TaskTrace trace =
      apps::build_synthetic_trace(apps::scale_config(3000), /*seed=*/7);
  topo::Mesh mesh(4, 4);
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  CountingRandom strategy(/*seed=*/0xC0FFEE);
  strategy.marks.reserve(2 * trace.size() + 16);
  DynamicEngine engine(mesh, cost, strategy);

  const sim::RunMetrics warm = engine.run(trace);
  ASSERT_EQ(warm.num_tasks, trace.size());
  const size_t spawns = strategy.marks.size();
  ASSERT_GE(spawns, 16u);

  strategy.marks.clear();
  const sim::RunMetrics metrics = engine.run(trace);
  ASSERT_EQ(metrics.num_tasks, trace.size());
  ASSERT_EQ(strategy.marks.size(), spawns)
      << "repeat run must be deterministic";

  const size_t lo = spawns / 3;
  const size_t hi = 2 * spawns / 3;
  EXPECT_EQ(strategy.marks[hi] - strategy.marks[lo], 0u)
      << "heap allocation in the steady-state spawn window [" << lo << ", "
      << hi << ")";
}

}  // namespace
}  // namespace rips::balance

namespace rips::topo {
namespace {

// A crash on a 64x64 machine: the survivor view and one distance row must
// stay linear in the machine size. An all-pairs table would be one
// 4095^2 x 4-byte request (64 MiB).
TEST(AllocBound, LiveViewAfterOneCrashStaysLinear) {
  const Mesh mesh(64, 64);
  std::vector<NodeId> live;
  for (NodeId p = 0; p < mesh.size(); ++p) {
    if (p != 2080) live.push_back(p);
  }
  g_largest_alloc.store(0, std::memory_order_relaxed);
  const LiveView view(mesh, live);
  // Corner to corner: 126 hops, less the one the dead node relays.
  EXPECT_EQ(view.distance(0, view.size() - 1), 125);
  EXPECT_LE(g_largest_alloc.load(std::memory_order_relaxed),
            std::size_t{1} << 20);
}

}  // namespace
}  // namespace rips::topo
