// Ablation — count-based vs work-based balancing (Section 3's design
// choice).
//
// The paper deliberately balances task COUNTS: "the estimation
// [of execution time] is application-specific ... each task is presumed
// to require the equal execution time, and the goal of the algorithm is
// to schedule tasks so that each processor has the same number of tasks.
// The inaccuracy due to the grain-size variation can be corrected in the
// next system phase." This bench measures exactly what that choice costs
// by also running RIPS in weighted mode (perfect grain estimates): the
// gap between the two is the value of the estimation the paper decided it
// could live without — small for mild grain variance, large for
// heavy-tailed grains. Runs dispatch through the parallel sweep executor;
// the table is identical for any --jobs value.
//
//   --quick     shrink workloads
//   --nodes=32
//   --jobs=1    sweep parallelism (0 = every CPU the process may use)
#include <cstdio>

#include "apps/synthetic.hpp"
#include "exec/sweep/runner.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rips;
  const Args args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const i32 nodes = static_cast<i32>(args.get_int("nodes", 32));
  const i32 jobs = static_cast<i32>(args.get_int("jobs", 1));

  std::printf(
      "Ablation: count-balanced vs work-balanced RIPS on %d processors\n\n",
      nodes);

  auto workloads =
      sweep::build_workloads(apps::paper_workload_specs(quick), jobs);
  {
    // An adversarial heavy-tailed synthetic: 90%% tiny, 10%% of tasks 10x.
    apps::SyntheticConfig config;
    config.num_roots = 2000;
    config.spawn_prob = 0.0;
    config.work_model = 3;
    config.mean_work = 20000;
    apps::Workload heavy;
    heavy.group = "Synthetic";
    heavy.name = "bimodal";
    heavy.trace = apps::build_synthetic_trace(config, 4242);
    heavy.cost.ns_per_work = 2000.0;
    heavy.tasks_reported = heavy.trace.size();
    workloads.push_back(std::move(heavy));
  }

  std::vector<sweep::RunDescriptor> descriptors;
  for (const auto& workload : workloads) {
    for (const bool weighted : {false, true}) {
      core::RipsConfig config;
      config.weighted = weighted;
      sweep::RunDescriptor d;
      d.workload = &workload;
      d.nodes = nodes;
      d.kind = sweep::Kind::kRips;
      d.config = config;
      d.cost_hint = static_cast<double>(workload.trace.size());
      descriptors.push_back(d);
    }
  }
  const auto results = sweep::run_sweep(descriptors, jobs);

  TextTable table;
  table.header({"workload", "balanced by", "phases", "tasks moved", "Ti (s)",
                "T (s)", "mu"});
  size_t next = 0;
  for (const auto& workload : workloads) {
    for (const bool weighted : {false, true}) {
      const sweep::RunResult& r = results[next++];
      RIPS_CHECK_MSG(r.ok, "sweep run failed");
      const auto& run = r.run;
      table.row({workload.group + " " + workload.name,
                 weighted ? "work (perfect estimates)" : "count (paper)",
                 cell(static_cast<long long>(run.metrics.system_phases)),
                 cell(static_cast<long long>(run.metrics.tasks_migrated)),
                 cell(run.metrics.idle_s(), 2), cell(run.metrics.exec_s(), 2),
                 cell_pct(run.metrics.efficiency())});
    }
    table.separator();
  }
  table.print();
  std::printf(
      "\nMeasured shape: near-parity on the queens workloads — the\n"
      "incremental phases absorb the estimation error, vindicating the\n"
      "paper's count-based choice there — but work-balancing wins clearly\n"
      "where synchronization barriers leave no later phase to correct in\n"
      "(IDA* iterations, GROMOS MD steps). Coarse bimodal grains can even\n"
      "regress: matching work amounts with 10x-sized tasks misfires and\n"
      "triggers extra phases.\n");
  return 0;
}
