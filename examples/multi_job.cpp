// Multiprogramming sketch: the paper's deferred scenario (Section 1).
//
// Three jobs — an irregular N-Queens search, a flat synthetic "numeric
// kernel" and a bursty divide-and-conquer job — share one 32-node machine.
// The merged trace runs under RIPS (which balances the combined load with
// global information) and under randomized allocation; per-job completion
// times come from the engines' per-job accounting (RunMetrics::jobs).
//
//   ./multi_job [--nodes=32]
#include <cstdio>

#include "apps/multi_job.hpp"
#include "apps/nqueens.hpp"
#include "apps/synthetic.hpp"
#include "balance/engine.hpp"
#include "balance/random_alloc.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "topo/topology.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rips;
  const Args args(argc, argv);
  const i32 nodes = static_cast<i32>(args.get_int("nodes", 32));

  // Job mix: one irregular search, one flat kernel, one bursty tree.
  const apps::TaskTrace queens = apps::build_nqueens_trace(12, 4);
  apps::SyntheticConfig flat;
  flat.num_roots = 4000;
  flat.spawn_prob = 0.0;
  flat.work_model = 0;
  flat.mean_work = 2000;
  const apps::TaskTrace kernel = apps::build_synthetic_trace(flat, 101);
  apps::SyntheticConfig bursty;
  bursty.num_roots = 32;
  bursty.spawn_prob = 0.7;
  bursty.max_depth = 5;
  bursty.max_branch = 6;
  bursty.work_model = 3;
  bursty.mean_work = 3000;
  const apps::TaskTrace tree = apps::build_synthetic_trace(bursty, 202);

  const apps::MergedJobs merged = apps::merge_jobs({
      {"12-queens search", &queens},
      {"flat kernel", &kernel},
      {"bursty d&c", &tree},
  });
  std::printf("merged workload: %s\n\n", merged.trace.summary().c_str());

  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  const auto shape = topo::paper_mesh_shape(nodes);
  topo::Mesh mesh(shape.rows, shape.cols);

  TextTable table;
  table.header({"job", "tasks", "RIPS completion (s)",
                "random completion (s)"});

  const std::vector<i32> job_of(merged.owner.begin(), merged.owner.end());
  const auto num_jobs = static_cast<i32>(merged.jobs.size());
  sim::RunMetrics rips_metrics;
  {
    sched::Mwa mwa(mesh);
    core::RipsEngine engine(mwa, cost, core::RipsConfig{});
    engine.set_job_map(&job_of, num_jobs);
    rips_metrics = engine.run(merged.trace);
  }
  sim::RunMetrics random_metrics;
  {
    balance::RandomAlloc random(31);
    balance::DynamicEngine engine(mesh, cost, random);
    engine.set_job_map(&job_of, num_jobs);
    random_metrics = engine.run(merged.trace);
  }

  for (size_t j = 0; j < merged.jobs.size(); ++j) {
    const SimTime rips_done = rips_metrics.jobs[j].completion_ns;
    const SimTime random_done = random_metrics.jobs[j].completion_ns;
    table.row({merged.jobs[j].name,
               cell(static_cast<long long>(merged.jobs[j].num_tasks)),
               cell(1e-9 * static_cast<double>(rips_done), 3),
               cell(1e-9 * static_cast<double>(random_done), 3)});
  }
  table.print();
  std::printf(
      "\nmachine totals: RIPS T=%.3fs mu=%.0f%%  |  random T=%.3fs "
      "mu=%.0f%%\n",
      rips_metrics.exec_s(), 100.0 * rips_metrics.efficiency(),
      random_metrics.exec_s(), 100.0 * random_metrics.efficiency());
  return 0;
}
