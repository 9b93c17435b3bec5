// RIPS engine tests: all four policy combinations, phase accounting,
// segment handling, detection modes and determinism.
#include <gtest/gtest.h>

#include "apps/nqueens.hpp"
#include "apps/synthetic.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "sched/twa.hpp"
#include "topo/topology.hpp"

namespace rips::core {
namespace {

apps::TaskTrace queens_trace() { return apps::build_nqueens_trace(10, 3); }

sim::CostModel test_cost() {
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  return cost;
}

std::vector<RipsConfig> all_policies() {
  std::vector<RipsConfig> out;
  for (const LocalPolicy local : {LocalPolicy::kEager, LocalPolicy::kLazy}) {
    for (const GlobalPolicy global : {GlobalPolicy::kAll, GlobalPolicy::kAny}) {
      RipsConfig config;
      config.local = local;
      config.global = global;
      out.push_back(config);
    }
  }
  return out;
}

TEST(RipsEngine, AllPolicyCombinationsComplete) {
  const auto trace = queens_trace();
  topo::Mesh mesh(4, 2);
  for (const RipsConfig& config : all_policies()) {
    sched::Mwa mwa(mesh);
    RipsEngine engine(mwa, test_cost(), config);
    const auto metrics = engine.run(trace);
    EXPECT_EQ(metrics.num_tasks, trace.size()) << config.name();
    EXPECT_GT(metrics.system_phases, 0u) << config.name();
    EXPECT_GT(metrics.efficiency(), 0.0) << config.name();
    EXPECT_LE(metrics.efficiency(), 1.0) << config.name();
  }
}

TEST(RipsEngine, AccountingIdentityHolds) {
  const auto trace = queens_trace();
  topo::Mesh mesh(4, 2);
  for (const RipsConfig& config : all_policies()) {
    sched::Mwa mwa(mesh);
    RipsEngine engine(mwa, test_cost(), config);
    const auto metrics = engine.run(trace);
    EXPECT_EQ(metrics.total_busy_ns + metrics.total_overhead_ns +
                  metrics.total_idle_ns,
              metrics.makespan_ns * metrics.num_nodes)
        << config.name();
    EXPECT_EQ(metrics.total_busy_ns, metrics.sequential_ns) << config.name();
  }
}

TEST(RipsEngine, DeterministicAcrossRuns) {
  const auto trace = queens_trace();
  topo::Mesh mesh(4, 2);
  sched::Mwa mwa(mesh);
  RipsEngine e1(mwa, test_cost(), RipsConfig{});
  RipsEngine e2(mwa, test_cost(), RipsConfig{});
  const auto m1 = e1.run(trace);
  const auto m2 = e2.run(trace);
  EXPECT_EQ(m1.makespan_ns, m2.makespan_ns);
  EXPECT_EQ(m1.nonlocal_tasks, m2.nonlocal_tasks);
  EXPECT_EQ(m1.system_phases, m2.system_phases);
}

TEST(RipsEngine, ReusableForMultipleRuns) {
  topo::Mesh mesh(4, 2);
  sched::Mwa mwa(mesh);
  RipsEngine engine(mwa, test_cost(), RipsConfig{});
  const auto m1 = engine.run(queens_trace());
  const auto m2 = engine.run(queens_trace());
  EXPECT_EQ(m1.makespan_ns, m2.makespan_ns);
}

TEST(RipsEngine, PhaseSamplesAreConsistent) {
  const auto trace = queens_trace();
  topo::Mesh mesh(4, 2);
  sched::Mwa mwa(mesh);
  RipsEngine engine(mwa, test_cost(), RipsConfig{});
  const auto metrics = engine.run(trace);
  EXPECT_EQ(engine.phases().size(), metrics.system_phases);
  u64 moved = 0;
  SimTime end = 0;
  for (size_t i = 0; i < engine.phases().size(); ++i) {
    const obs::PhaseSample& phase = engine.phases()[i];
    EXPECT_EQ(phase.kind, obs::PhaseKind::kSystem);
    EXPECT_EQ(phase.phase, i);
    EXPECT_GE(phase.t0, end);  // a user phase may sit in between
    EXPECT_GE(phase.t1, phase.t0);
    EXPECT_GT(phase.comm_steps, 0);
    moved += phase.moved;
    end = phase.t1;
  }
  EXPECT_EQ(moved, metrics.tasks_migrated);
  // The final phase always detects termination on an empty system, and
  // ends the run.
  EXPECT_EQ(engine.phases().back().tasks, 0u);
  EXPECT_EQ(engine.phases().back().t1, metrics.makespan_ns);
  // Every system phase but the last opens one user phase.
  const obs::Counter* user = engine.metrics_registry().find_counter("phase.user");
  ASSERT_NE(user, nullptr);
  EXPECT_EQ(user->value() + 1, engine.phases().size());
}

TEST(RipsEngine, LazySchedulesOnlyAFractionOfTasks) {
  // Section 2: with the lazy policy some tasks run without ever being
  // scheduled, so the per-phase scheduled totals undershoot the task count.
  const auto trace = queens_trace();
  topo::Mesh mesh(4, 2);
  sched::Mwa mwa(mesh);
  RipsConfig lazy;
  lazy.local = LocalPolicy::kLazy;
  RipsEngine engine(mwa, test_cost(), lazy);
  engine.run(trace);
  u64 scheduled = 0;
  for (const auto& phase : engine.phases()) scheduled += phase.tasks;
  EXPECT_LT(scheduled, trace.size());
}

TEST(RipsEngine, EagerSchedulesEveryTask) {
  // With the eager policy every task passes through the RTS queue at least
  // once before executing.
  const auto trace = queens_trace();
  topo::Mesh mesh(4, 2);
  sched::Mwa mwa(mesh);
  RipsConfig eager;
  eager.local = LocalPolicy::kEager;
  RipsEngine engine(mwa, test_cost(), eager);
  engine.run(trace);
  u64 scheduled = 0;
  for (const auto& phase : engine.phases()) scheduled += phase.tasks;
  EXPECT_GE(scheduled, trace.size());
}

TEST(RipsEngine, SegmentsRunInOrder) {
  apps::SyntheticConfig config;
  config.num_roots = 16;
  config.num_segments = 4;
  config.spawn_prob = 0.3;
  const auto trace = apps::build_synthetic_trace(config, 5);
  topo::Mesh mesh(2, 2);
  sched::Mwa mwa(mesh);
  RipsEngine engine(mwa, test_cost(), RipsConfig{});
  const auto metrics = engine.run(trace);
  EXPECT_EQ(metrics.num_tasks, trace.size());
  // At least one system phase per segment (each barrier is a phase).
  EXPECT_GE(metrics.system_phases, 4u);
}

TEST(RipsEngine, PeriodicDetectionCompletesAndCostsMore) {
  const auto trace = queens_trace();
  topo::Mesh mesh(4, 2);
  sched::Mwa mwa(mesh);
  RipsConfig signal;
  RipsConfig periodic;
  periodic.detect = DetectMode::kPeriodic;
  periodic.periodic_interval_ns = 500'000;  // aggressive polling
  RipsEngine e1(mwa, test_cost(), signal);
  RipsEngine e2(mwa, test_cost(), periodic);
  const auto m1 = e1.run(trace);
  const auto m2 = e2.run(trace);
  EXPECT_EQ(m2.num_tasks, trace.size());
  EXPECT_GT(m2.total_overhead_ns, m1.total_overhead_ns);
}

TEST(RipsEngine, LifoExecutionCompletesWithSmallerPhases) {
  const auto trace = queens_trace();
  topo::Mesh mesh(4, 2);
  sched::Mwa mwa(mesh);
  RipsConfig fifo;
  RipsConfig lifo;
  lifo.lifo_execution = true;
  RipsEngine e1(mwa, test_cost(), fifo);
  RipsEngine e2(mwa, test_cost(), lifo);
  const auto m1 = e1.run(trace);
  const auto m2 = e2.run(trace);
  EXPECT_EQ(m1.num_tasks, m2.num_tasks);
  // LIFO keeps queues shallow, so it reschedules fewer tasks per phase but
  // runs more phases.
  EXPECT_GE(m2.system_phases, m1.system_phases);
}

TEST(RipsEngine, WorksWithTreeScheduler) {
  const auto trace = queens_trace();
  topo::BinaryTree tree(8);
  sched::Twa twa(tree);
  RipsEngine engine(twa, test_cost(), RipsConfig{});
  const auto metrics = engine.run(trace);
  EXPECT_EQ(metrics.num_tasks, trace.size());
  EXPECT_GT(metrics.efficiency(), 0.0);
}

TEST(RipsEngine, SingleNodeDegeneratesGracefully) {
  const auto trace = queens_trace();
  topo::Mesh mesh(1, 1);
  sched::Mwa mwa(mesh);
  RipsEngine engine(mwa, test_cost(), RipsConfig{});
  const auto metrics = engine.run(trace);
  EXPECT_EQ(metrics.num_tasks, trace.size());
  EXPECT_EQ(metrics.nonlocal_tasks, 0u);
}

TEST(RipsEngine, NonlocalNeverExceedsMigrated) {
  const auto trace = queens_trace();
  topo::Mesh mesh(4, 2);
  sched::Mwa mwa(mesh);
  RipsEngine engine(mwa, test_cost(), RipsConfig{});
  const auto metrics = engine.run(trace);
  EXPECT_LE(metrics.nonlocal_tasks, metrics.tasks_migrated);
  EXPECT_GT(metrics.nonlocal_tasks, 0u);
}

TEST(RipsEngine, WeightedModeCompletesAndConserves) {
  const auto trace = queens_trace();
  topo::Mesh mesh(4, 2);
  sched::Mwa mwa(mesh);
  RipsConfig weighted;
  weighted.weighted = true;
  RipsEngine engine(mwa, test_cost(), weighted);
  const auto m = engine.run(trace);
  EXPECT_EQ(m.num_tasks, trace.size());
  EXPECT_EQ(m.total_busy_ns, m.sequential_ns);
  EXPECT_EQ(m.total_busy_ns + m.total_overhead_ns + m.total_idle_ns,
            m.makespan_ns * m.num_nodes);
}

TEST(RipsEngine, WeightedModeHelpsOnSkewedGrains) {
  // One monster task per node's worth of tiny ones: count balancing puts
  // equal counts everywhere, weight balancing isolates the monsters.
  apps::TaskTrace trace;
  for (int i = 0; i < 8; ++i) trace.add_root(100000);
  for (int i = 0; i < 792; ++i) trace.add_root(100);
  topo::Mesh mesh(4, 2);
  sched::Mwa mwa(mesh);
  RipsConfig counts;
  RipsConfig weighted;
  weighted.weighted = true;
  RipsEngine by_count(mwa, test_cost(), counts);
  RipsEngine by_work(mwa, test_cost(), weighted);
  const auto mc = by_count.run(trace);
  const auto mw = by_work.run(trace);
  EXPECT_EQ(mc.num_tasks, mw.num_tasks);
  EXPECT_LE(mw.makespan_ns, mc.makespan_ns);
}

TEST(RipsEngine, EmptyTrace) {
  apps::TaskTrace trace;
  topo::Mesh mesh(2, 2);
  sched::Mwa mwa(mesh);
  RipsEngine engine(mwa, test_cost(), RipsConfig{});
  const auto metrics = engine.run(trace);
  EXPECT_EQ(metrics.num_tasks, 0u);
  // Termination detection is still one (empty) system phase.
  EXPECT_EQ(metrics.system_phases, 1u);
}

}  // namespace
}  // namespace rips::core
