// RIPS engine tests: all four policy combinations, phase accounting,
// segment handling, detection modes and determinism.
#include <gtest/gtest.h>

#include "apps/nqueens.hpp"
#include "apps/online_source.hpp"
#include "apps/synthetic.hpp"
#include "rips/rips_engine.hpp"
#include "rips/task_costs.hpp"
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

// ------------------------------------------------------------ TaskCosts

/// Drain cost of `task` by recursion over its subtree: work plus spawn
/// overhead, plus (Lazy) every child's drain cost.
SimTime reference_drain(const apps::TaskTrace& trace, TaskId task,
                        const sim::CostModel& cost, LocalPolicy local) {
  const apps::TraceTask& info = trace.task(task);
  SimTime c = cost.work_time(info.work) +
              static_cast<SimTime>(info.num_children) * cost.spawn_ns;
  if (local == LocalPolicy::kLazy) {
    for (u32 k = 0; k < info.num_children; ++k) {
      c += reference_drain(trace, trace.children_begin(task)[k], cost, local);
    }
  }
  return c;
}

// A table filled as its trace grows, one piece per appended job (how an
// online engine extends its own), equals one built over the whole trace at
// once, and both equal the recursive definition.
TEST(TaskCosts, ExtendedInPiecesEqualsBuiltAtOnce) {
  for (const LocalPolicy local : {LocalPolicy::kLazy, LocalPolicy::kEager}) {
    apps::OnlineJobs jobs;
    TaskCosts pieces;
    pieces.reset(jobs.trace(), test_cost(), local);
    SimTime work = 0;
    for (u64 seed = 1; seed <= 4; ++seed) {
      apps::SyntheticConfig config;
      config.num_roots = static_cast<i32>(10 * seed);
      jobs.append_job("job", apps::build_synthetic_trace(config, seed),
                      nullptr);
      work += pieces.extend();
      ASSERT_TRUE(pieces.built_for(jobs.trace(), test_cost(), local));
    }
    TaskCosts whole;
    whole.reset(jobs.trace(), test_cost(), local);
    EXPECT_EQ(whole.extend(), work);
    EXPECT_EQ(pieces.sequential_ns, work);
    EXPECT_EQ(whole.sequential_ns, work);
    EXPECT_EQ(pieces.drain, whole.drain);
    const apps::TaskTrace& trace = jobs.trace();
    for (size_t t = 0; t < trace.size(); ++t) {
      ASSERT_EQ(whole.drain[t], reference_drain(trace, static_cast<TaskId>(t),
                                                test_cost(), local))
          << t;
    }
  }
}

// A lent table gives the run the engine's own table gives, in count and
// weighted mode under every policy, and the engine computes no costs.
TEST(TaskCosts, ALentTableRunsLikeTheEnginesOwn) {
  const auto trace = queens_trace();
  topo::Mesh mesh(4, 4);
  for (RipsConfig config : all_policies()) {
    for (const bool weighted : {false, true}) {
      config.weighted = weighted;
      const std::string what = config.name() + (weighted ? " weighted" : "");
      TaskCosts table;
      table.reset(trace, test_cost(), config.local);
      table.extend();
      sched::Mwa mwa(mesh);
      RipsEngine engine(mwa, test_cost(), config);
      const auto own = engine.run(trace);
      const std::string own_registry = engine.metrics_registry().to_json();
      EXPECT_EQ(engine.costs_built(), trace.size()) << what;
      const auto lent = engine.run(trace, &table);
      EXPECT_EQ(engine.costs_built(), 0u) << what;
      EXPECT_EQ(own, lent) << what;
      EXPECT_EQ(own_registry, engine.metrics_registry().to_json()) << what;
    }
  }
}

TaskCosts table_for(const apps::TaskTrace& trace, const sim::CostModel& cost,
                    LocalPolicy local) {
  TaskCosts table;
  table.reset(trace, cost, local);
  table.extend();
  return table;
}

// A table built for another local policy, cost model, trace object or
// trace size aborts the run.
TEST(TaskCostsDeathTest, ATableForAnotherKeyAbortsTheRun) {
  const apps::TaskTrace trace = queens_trace();
  const apps::TaskTrace copy = trace;  // equal contents, another object
  apps::TaskTrace grown = trace;
  const TaskCosts before_growth = table_for(grown, test_cost(),
                                            LocalPolicy::kLazy);
  grown.add_root(1);
  sim::CostModel slower = test_cost();
  slower.ns_per_work *= 2;
  sim::CostModel costlier_spawn = test_cost();
  costlier_spawn.spawn_ns += 1;
  topo::Mesh mesh(2, 2);
  sched::Mwa mwa(mesh);
  RipsEngine engine(mwa, test_cost(), RipsConfig{});  // ANY-Lazy
  const char* msg = "shared task costs were built for another";
  const TaskCosts eager = table_for(trace, test_cost(), LocalPolicy::kEager);
  EXPECT_DEATH(engine.run(trace, &eager), msg);
  const TaskCosts slow = table_for(trace, slower, LocalPolicy::kLazy);
  EXPECT_DEATH(engine.run(trace, &slow), msg);
  const TaskCosts spawn = table_for(trace, costlier_spawn, LocalPolicy::kLazy);
  EXPECT_DEATH(engine.run(trace, &spawn), msg);
  const TaskCosts other = table_for(copy, test_cost(), LocalPolicy::kLazy);
  EXPECT_DEATH(engine.run(trace, &other), msg);
  EXPECT_DEATH(engine.run(grown, &before_growth), msg);
  // The matching table runs.
  const TaskCosts right = table_for(trace, test_cost(), LocalPolicy::kLazy);
  EXPECT_EQ(engine.run(trace, &right).num_tasks, trace.size());
}

}  // namespace
}  // namespace rips::core
