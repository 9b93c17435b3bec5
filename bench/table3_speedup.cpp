// Table III — Speedup Comparison on 64 and 128 Processors.
//
// The three largest workloads (15-Queens, IDA* config #3, GROMOS 16 A)
// under all four strategies on 8x8 and 16x8 meshes. Following Section 4,
// RID's load-update factor u is retuned from 0.4 to 0.7 for IDA* on the
// large machines ("the value of u needs to be adjusted for low parallelism
// on large systems"). Runs dispatch through the parallel sweep executor;
// the table is identical for any --jobs value.
//
//   --quick     shrink workloads
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
  const i32 jobs = static_cast<i32>(args.get_int("jobs", 1));

  std::printf("Table III: speedup comparison on 64 and 128 processors\n");

  std::vector<apps::WorkloadSpec> specs;
  if (quick) {
    specs.push_back({"Exhaustive search", "12-Queens",
                     [] { return apps::build_queens_workload(12); }});
  } else {
    specs.push_back({"Exhaustive search", "15-Queens",
                     [] { return apps::build_queens_workload(15); }});
    specs.push_back({"IDA* search", "config #3",
                     [] { return apps::build_ida_workload(3); }});
    specs.push_back({"GROMOS", "16 A",
                     [] { return apps::build_gromos_workload(16.0); }});
  }
  const auto workloads = sweep::build_workloads(specs, jobs);

  const std::vector<sweep::Kind> kinds = sweep::table1_kinds();
  std::vector<sweep::RunDescriptor> descriptors;
  for (const auto& workload : workloads) {
    const bool is_ida = workload.group == "IDA* search";
    for (const sweep::Kind kind : kinds) {
      for (const i32 nodes : {64, 128}) {
        sweep::RunDescriptor d;
        d.workload = &workload;
        d.nodes = nodes;
        d.kind = kind;
        d.rid_u = is_ida ? 0.7 : 0.4;
        d.cost_hint = static_cast<double>(workload.trace.size()) *
                      (kind == sweep::Kind::kGradient ? 8.0 : 1.0);
        descriptors.push_back(d);
      }
    }
  }
  const auto results = sweep::run_sweep(descriptors, jobs);

  TextTable table;
  table.header({"workload", "strategy", "speedup @64", "speedup @128"});
  size_t next = 0;
  for (const auto& workload : workloads) {
    for (const sweep::Kind kind : kinds) {
      (void)kind;
      const sweep::RunResult& at64 = results[next++];
      const sweep::RunResult& at128 = results[next++];
      RIPS_CHECK_MSG(at64.ok && at128.ok, "sweep run failed");
      table.row({workload.group + " " + workload.name, at64.run.strategy,
                 cell(at64.run.metrics.speedup(), 1),
                 cell(at128.run.metrics.speedup(), 1)});
    }
    table.separator();
  }
  table.print();
  std::printf(
      "\nPaper shape: random and RID scale, the gradient model does not,\n"
      "and RIPS scales best (60.2/107 on 15-Queens).\n");
  return 0;
}
