// Table I — Comparison of Scheduling Algorithms on 32 Processors.
//
// For each of the paper's nine workloads (13/14/15-Queens, IDA* configs
// #1..#3, GROMOS at 8/12/16 A) this bench runs Random allocation, the
// Gradient model, RID and RIPS (ANY-Lazy + MWA) on a simulated 8x4 mesh
// and prints the paper's columns: # of tasks, # of non-local tasks,
// overhead Th, idle Ti, execution time T and efficiency mu.
//
// It finishes with the Section-4 per-phase breakdown of the 15-Queens RIPS
// run (the paper narrates: 8 system phases, ~125 non-local tasks/phase,
// ~96 ms total migration, Th 510 ms, Ti ~30 ms, efficiency 95%).
//
// Workload construction and the 36 runs dispatch through the parallel
// sweep executor: the tables are identical for any --jobs value.
//
//   --quick      shrink the workloads (CI smoke run)
//   --nodes=32   processor count (paper mesh shape)
//   --jobs=1     sweep parallelism (0 = every CPU the process may use)
#include <cstdio>

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

  std::printf("Table I: comparison of scheduling algorithms on %d processors\n",
              nodes);
  const auto workloads =
      sweep::build_workloads(apps::paper_workload_specs(quick), jobs);

  const std::vector<sweep::Kind> kinds = sweep::table1_kinds();
  std::vector<sweep::RunDescriptor> descriptors;
  for (const auto& workload : workloads) {
    for (const sweep::Kind kind : kinds) {
      sweep::RunDescriptor d;
      d.workload = &workload;
      d.nodes = nodes;
      d.kind = kind;
      d.cost_hint = static_cast<double>(workload.trace.size()) *
                    (kind == sweep::Kind::kGradient ? 8.0 : 1.0);
      descriptors.push_back(d);
    }
  }
  const auto results = sweep::run_sweep(descriptors, jobs);

  TextTable table;
  table.header({"workload", "strategy", "# tasks", "# non-local", "Th (s)",
                "Ti (s)", "T (s)", "mu"});
  std::vector<sweep::StrategyRun> queens15_rips;
  size_t next = 0;
  for (const auto& workload : workloads) {
    const std::string label = workload.group + " " + workload.name;
    for (const sweep::Kind kind : kinds) {
      const sweep::RunResult& r = results[next++];
      RIPS_CHECK_MSG(r.ok, "sweep run failed");
      const sweep::StrategyRun& run = r.run;
      table.row({label, run.strategy,
                 cell(static_cast<long long>(workload.tasks_reported)),
                 cell(static_cast<long long>(run.metrics.nonlocal_tasks)),
                 cell(run.metrics.overhead_s(), 2),
                 cell(run.metrics.idle_s(), 2), cell(run.metrics.exec_s(), 2),
                 cell_pct(run.metrics.efficiency())});
      if (kind == sweep::Kind::kRips && workload.name == "15-Queens") {
        queens15_rips.push_back(run);
      }
    }
    table.separator();
  }
  table.print();

  if (!queens15_rips.empty()) {
    const auto& run = queens15_rips.front();
    std::printf("\n15-Queens RIPS phase breakdown (Section 4 narrative):\n");
    TextTable phases;
    phases.header({"phase", "tasks scheduled", "tasks moved", "comm steps",
                   "duration (ms)"});
    u64 moved = 0;
    double migration_ms = 0.0;
    for (size_t p = 0; p < run.phases.size(); ++p) {
      const auto& ph = run.phases[p];
      phases.row({cell(static_cast<long long>(p)),
                  cell(static_cast<long long>(ph.tasks)),
                  cell(static_cast<long long>(ph.moved)),
                  cell(static_cast<long long>(ph.comm_steps)),
                  cell(1e-6 * static_cast<double>(ph.t1 - ph.t0), 2)});
      moved += ph.moved;
      migration_ms += 1e-6 * static_cast<double>(ph.t1 - ph.t0);
    }
    phases.print();
    std::printf(
        "%zu system phases, %llu tasks moved, %.0f ms total system-phase "
        "time, %llu non-local tasks, efficiency %.0f%%\n",
        run.phases.size(), static_cast<unsigned long long>(moved),
        migration_ms,
        static_cast<unsigned long long>(run.metrics.nonlocal_tasks),
        100.0 * run.metrics.efficiency());
  }
  return 0;
}
