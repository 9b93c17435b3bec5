// Ablation — RIPS transfer policies (Section 2).
//
// Runs every combination of local policy (Eager / Lazy) and global policy
// (ALL / ANY) over the paper workloads, plus the FIFO vs LIFO execution-
// order variant, to reproduce the claim from [24] that ANY-Lazy is the
// best of the four combinations. Runs dispatch through the parallel sweep
// executor; the table is identical for any --jobs value.
//
//   --quick     shrink workloads (the full sweep is ~5x Table I)
//   --nodes=32
//   --jobs=1    sweep parallelism (0 = every CPU the process may use)
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

  std::printf("Ablation: RIPS policy combinations on %d processors%s\n",
              nodes, quick ? " (quick workloads)" : "");
  const auto workloads =
      sweep::build_workloads(apps::paper_workload_specs(quick), jobs);

  std::vector<core::RipsConfig> configs;
  for (const core::LocalPolicy local :
       {core::LocalPolicy::kEager, core::LocalPolicy::kLazy}) {
    for (const core::GlobalPolicy global :
         {core::GlobalPolicy::kAll, core::GlobalPolicy::kAny}) {
      core::RipsConfig config;
      config.local = local;
      config.global = global;
      configs.push_back(config);
    }
  }
  core::RipsConfig lifo;
  lifo.lifo_execution = true;

  // workload-major, then the 4 policy combinations and the LIFO variant.
  std::vector<sweep::RunDescriptor> descriptors;
  for (const auto& workload : workloads) {
    for (const auto& config : configs) {
      sweep::RunDescriptor d;
      d.workload = &workload;
      d.nodes = nodes;
      d.kind = sweep::Kind::kRips;
      d.config = config;
      d.cost_hint = static_cast<double>(workload.trace.size());
      descriptors.push_back(d);
    }
    sweep::RunDescriptor d;
    d.workload = &workload;
    d.nodes = nodes;
    d.kind = sweep::Kind::kRips;
    d.config = lifo;
    d.cost_hint = static_cast<double>(workload.trace.size());
    descriptors.push_back(d);
  }
  const auto results = sweep::run_sweep(descriptors, jobs);

  TextTable table;
  table.header({"workload", "policy", "phases", "# non-local", "Th (s)",
                "Ti (s)", "T (s)", "mu"});
  size_t next = 0;
  for (const auto& workload : workloads) {
    double best = 0.0;
    std::string best_name;
    for (const auto& config : configs) {
      const sweep::RunResult& r = results[next++];
      RIPS_CHECK_MSG(r.ok, "sweep run failed");
      const auto& run = r.run;
      table.row({workload.group + " " + workload.name, config.name(),
                 cell(static_cast<long long>(run.metrics.system_phases)),
                 cell(static_cast<long long>(run.metrics.nonlocal_tasks)),
                 cell(run.metrics.overhead_s(), 2),
                 cell(run.metrics.idle_s(), 2), cell(run.metrics.exec_s(), 2),
                 cell_pct(run.metrics.efficiency())});
      if (run.metrics.efficiency() > best) {
        best = run.metrics.efficiency();
        best_name = config.name();
      }
    }
    const sweep::RunResult& lifo_r = results[next++];
    RIPS_CHECK_MSG(lifo_r.ok, "sweep run failed");
    const auto& lifo_run = lifo_r.run;
    table.row({workload.group + " " + workload.name, "ANY-Lazy LIFO",
               cell(static_cast<long long>(lifo_run.metrics.system_phases)),
               cell(static_cast<long long>(lifo_run.metrics.nonlocal_tasks)),
               cell(lifo_run.metrics.overhead_s(), 2),
               cell(lifo_run.metrics.idle_s(), 2),
               cell(lifo_run.metrics.exec_s(), 2),
               cell_pct(lifo_run.metrics.efficiency())});
    table.separator();
    std::printf("  best policy for %s: %s (%.0f%%)\n", workload.name.c_str(),
                best_name.c_str(), 100.0 * best);
  }
  table.print();
  return 0;
}
