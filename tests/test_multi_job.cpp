// Multi-job merging: structure preservation, ownership mapping and the
// engines' per-job accounting over a merged trace (conserved, fair rows
// that never change the schedule).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/multi_job.hpp"
#include "apps/nqueens.hpp"
#include "apps/paper_workloads.hpp"
#include "apps/synthetic.hpp"
#include "balance/engine.hpp"
#include "balance/random_alloc.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "topo/topology.hpp"

namespace rips::apps {
namespace {

TEST(MergeJobs, PreservesTotalsAndOwnership) {
  const TaskTrace a = build_nqueens_trace(8, 2);
  SyntheticConfig config;
  config.num_roots = 50;
  config.spawn_prob = 0.5;
  const TaskTrace b = build_synthetic_trace(config, 9);

  const MergedJobs merged = merge_jobs({{"a", &a}, {"b", &b}});
  EXPECT_EQ(merged.trace.size(), a.size() + b.size());
  EXPECT_EQ(merged.trace.total_work(), a.total_work() + b.total_work());
  ASSERT_EQ(merged.jobs.size(), 2u);
  EXPECT_EQ(merged.jobs[0].num_tasks, a.size());
  EXPECT_EQ(merged.jobs[1].num_tasks, b.size());
  // Every task has an owner; owners partition the trace.
  u64 owned[2] = {0, 0};
  for (u32 o : merged.owner) {
    ASSERT_LT(o, 2u);
    owned[o] += 1;
  }
  EXPECT_EQ(owned[0], a.size());
  EXPECT_EQ(owned[1], b.size());
}

TEST(MergeJobs, RootsInterleaveRoundRobin) {
  TaskTrace a;
  for (int i = 0; i < 3; ++i) a.add_root(1);
  TaskTrace b;
  for (int i = 0; i < 2; ++i) b.add_root(2);
  const MergedJobs merged = merge_jobs({{"a", &a}, {"b", &b}});
  const auto& roots = merged.trace.roots(0);
  ASSERT_EQ(roots.size(), 5u);
  EXPECT_EQ(merged.owner[roots[0]], 0u);
  EXPECT_EQ(merged.owner[roots[1]], 1u);
  EXPECT_EQ(merged.owner[roots[2]], 0u);
  EXPECT_EQ(merged.owner[roots[3]], 1u);
  EXPECT_EQ(merged.owner[roots[4]], 0u);
}

TEST(MergeJobs, SpawnStructureSurvives) {
  TaskTrace a;
  const TaskId root = a.add_root(10);
  a.add_child(root, 20);
  a.add_child(root, 30);
  const MergedJobs merged = merge_jobs({{"solo", &a}});
  const TaskId merged_root = merged.trace.roots(0)[0];
  ASSERT_EQ(merged.trace.num_children(merged_root), 2u);
  EXPECT_EQ(merged.trace.task(merged.trace.children_begin(merged_root)[0]).work,
            20u);
}

/// The merged trace's owner map in the engines' set_job_map form.
std::vector<i32> job_map(const MergedJobs& merged) {
  return {merged.owner.begin(), merged.owner.end()};
}

TEST(MergeJobs, MergedTraceRunsOnBothEngines) {
  const TaskTrace a = build_nqueens_trace(9, 3);
  SyntheticConfig config;
  config.num_roots = 100;
  const TaskTrace b = build_synthetic_trace(config, 4);
  const MergedJobs merged = merge_jobs({{"a", &a}, {"b", &b}});

  topo::Mesh mesh(2, 2);
  sim::CostModel cost;
  sched::Mwa mwa(mesh);
  core::RipsEngine rips_engine(mwa, cost, core::RipsConfig{});
  const std::vector<i32> job_of = job_map(merged);
  rips_engine.set_job_map(&job_of, 2);
  const auto metrics = rips_engine.run(merged.trace);
  EXPECT_EQ(metrics.num_tasks, merged.trace.size());

  ASSERT_EQ(metrics.jobs.size(), 2u);
  const SimTime done0 = metrics.jobs[0].completion_ns;
  const SimTime done1 = metrics.jobs[1].completion_ns;
  EXPECT_GT(done0, 0);
  EXPECT_GT(done1, 0);
  EXPECT_EQ(metrics.jobs[0].tasks, a.size());
  EXPECT_EQ(metrics.jobs[1].tasks, b.size());
  // The machine-level makespan is the slowest job's completion plus the
  // trailing termination-detection phase.
  EXPECT_GE(metrics.makespan_ns, std::max(done0, done1));
}

TEST(MergeJobs, FairerThanSerialExecution) {
  // Two equal jobs merged: both finish near the shared makespan rather
  // than one waiting for the other (the point of space-sharing).
  SyntheticConfig config;
  config.num_roots = 500;
  config.spawn_prob = 0.0;
  config.work_model = 0;
  config.mean_work = 1000;
  const TaskTrace a = build_synthetic_trace(config, 1);
  const TaskTrace b = build_synthetic_trace(config, 2);
  const MergedJobs merged = merge_jobs({{"a", &a}, {"b", &b}});

  topo::Mesh mesh(4, 2);
  sim::CostModel cost;
  balance::RandomAlloc random(3);
  balance::DynamicEngine engine(mesh, cost, random);
  const std::vector<i32> job_of = job_map(merged);
  engine.set_job_map(&job_of, 2);
  const auto metrics = engine.run(merged.trace);
  ASSERT_EQ(metrics.jobs.size(), 2u);
  const double ratio = static_cast<double>(metrics.jobs[0].completion_ns) /
                       static_cast<double>(metrics.jobs[1].completion_ns);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
  EXPECT_EQ(metrics.num_tasks, merged.trace.size());
}

// ------------------------------------------------- per-job accounting

sim::CostModel test_cost() {
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  return cost;
}

TEST(JobAccounting, MultiJobRunEmitsConservedFairRows) {
  const apps::Workload w = apps::build_multi_job_workload({8, 9, 10});
  ASSERT_EQ(w.job_names.size(), 3u);
  ASSERT_EQ(w.job_of.size(), w.trace.size());

  topo::Mesh mesh(4, 4);
  sched::Mwa mwa(mesh);
  core::RipsEngine engine(mwa, test_cost(), core::RipsConfig{});
  engine.set_job_map(&w.job_of, static_cast<i32>(w.job_names.size()));
  const sim::RunMetrics m = engine.run(w.trace);

  ASSERT_EQ(m.jobs.size(), 3u);
  u64 tasks = 0, nonlocal = 0, migrated = 0;
  SimTime work = 0;
  for (const sim::JobMetrics& jm : m.jobs) {
    EXPECT_GT(jm.tasks, 0u);
    EXPECT_GT(jm.work_ns, 0);
    EXPECT_GT(jm.completion_ns, 0);
    EXPECT_LE(jm.completion_ns, m.makespan_ns);
    EXPECT_LE(jm.nonlocal_tasks, jm.tasks);
    tasks += jm.tasks;
    nonlocal += jm.nonlocal_tasks;
    migrated += jm.tasks_migrated;
    work += jm.work_ns;
  }
  // Conservation: the per-job rows partition the machine-wide totals.
  EXPECT_EQ(tasks, m.num_tasks);
  EXPECT_EQ(nonlocal, m.nonlocal_tasks);
  EXPECT_EQ(migrated, m.tasks_migrated);
  EXPECT_EQ(work, m.total_busy_ns);
  // The last job completion lands inside the final user phase — after it
  // only the closing detection barrier separates it from the makespan.
  SimTime last = 0;
  for (const sim::JobMetrics& jm : m.jobs) last = std::max(last, jm.completion_ns);
  EXPECT_GT(last, 0);
  EXPECT_LE(last, m.makespan_ns);

  const double fairness = m.job_fairness();
  EXPECT_GT(fairness, 1.0 / 3.0 - 1e-9);  // Jain lower bound for 3 jobs
  EXPECT_LE(fairness, 1.0);
}

TEST(JobAccounting, AttachingJobMapNeverChangesTheSchedule) {
  const apps::Workload w = apps::build_multi_job_workload({8, 9, 10});
  topo::Mesh mesh(4, 4);

  sched::Mwa mwa_plain(mesh);
  core::RipsEngine plain(mwa_plain, test_cost(), core::RipsConfig{});
  sim::RunMetrics without = plain.run(w.trace);

  sched::Mwa mwa_mapped(mesh);
  core::RipsEngine mapped(mwa_mapped, test_cost(), core::RipsConfig{});
  mapped.set_job_map(&w.job_of, static_cast<i32>(w.job_names.size()));
  sim::RunMetrics with = mapped.run(w.trace);

  // Accounting is observation, not policy: every machine-wide metric is
  // bit-identical with the job map on or off.
  ASSERT_FALSE(with.jobs.empty());
  with.jobs.clear();
  EXPECT_EQ(without, with);
}

}  // namespace
}  // namespace rips::apps
