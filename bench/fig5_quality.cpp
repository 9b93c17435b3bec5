// Figure 5 — Normalized Quality Factors.
//
// For every workload and strategy g the paper defines the factor
//     (mu_opt - mu_rand) / (mu_opt - mu_g)
// against the randomized-allocation baseline: 1.0 for random itself,
// larger than 1 for strategies that beat it. Printed per application group
// like Figures 5(a) (exhaustive search), 5(b) (IDA*), 5(c) (GROMOS).
//
// All runs dispatch through the parallel sweep executor: the table is
// identical for any --jobs value.
//
//   --quick     shrink workloads
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

  std::printf("Figure 5: normalized quality factors on %d processors\n",
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

  std::string group;
  TextTable table;
  auto flush_group = [&] {
    if (!group.empty()) {
      std::printf("\n%s:\n", group.c_str());
      table.print();
      table = TextTable{};
    }
  };
  size_t next = 0;
  for (const auto& workload : workloads) {
    if (workload.group != group) {
      flush_group();
      group = workload.group;
      table.header({"workload", "Random", "Gradient", "RID", "RIPS"});
    }
    const double mu_opt = workload.trace.optimal_efficiency(nodes);
    double mu_rand = 0.0;
    std::vector<std::string> row{workload.name};
    for (const sweep::Kind kind : kinds) {
      const sweep::RunResult& r = results[next++];
      RIPS_CHECK_MSG(r.ok, "sweep run failed");
      const double mu = r.run.metrics.efficiency();
      if (kind == sweep::Kind::kRandom) mu_rand = mu;
      const double denom = mu_opt - mu;
      // A strategy at (or numerically above) the optimum gets a large
      // finite factor rather than a division blow-up.
      const double factor =
          denom <= 1e-6 ? 99.0 : (mu_opt - mu_rand) / denom;
      row.push_back(cell(factor, 2));
    }
    table.row(std::move(row));
  }
  flush_group();
  std::printf(
      "\nfactor > 1: better than randomized allocation; the paper's shape\n"
      "is RIPS highest in every group, gradient lowest.\n");
  return 0;
}
