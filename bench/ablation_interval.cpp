// Ablation — periodic-reduction detection interval (Section 2).
//
// The paper's strawman implementation detects the global transfer
// condition with a periodic global reduction: "an interval that is too
// short increases communication overhead, and an interval that is too long
// may result in unnecessary processor idle. The optimal length of the
// interval is to be determined by empirical study." This bench is that
// empirical study, plus the dedicated signal protocol as the reference.
// The seven configurations dispatch through the parallel sweep executor;
// the table is identical for any --jobs value.
//
//   --nodes=32
//   --queens=12
//   --jobs=1    sweep parallelism (0 = every CPU the process may use)
#include <cstdio>

#include "apps/nqueens.hpp"
#include "exec/sweep/runner.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rips;
  const Args args(argc, argv);
  const i32 nodes = static_cast<i32>(args.get_int("nodes", 32));
  const i32 queens = static_cast<i32>(args.get_int("queens", 12));
  const i32 jobs = static_cast<i32>(args.get_int("jobs", 1));

  apps::Workload workload;
  workload.group = "Exhaustive search";
  workload.name = std::to_string(queens) + "-Queens";
  workload.trace = apps::build_nqueens_trace(queens, 4);
  workload.cost.ns_per_work = 2000.0;

  std::printf(
      "Ablation: ANY-policy detection, %d-queens on %d processors\n"
      "(signal protocol vs periodic reduction at various intervals)\n\n",
      queens, nodes);

  const std::vector<SimTime> intervals_us = {100,    500,     2'000,
                                             10'000, 50'000, 200'000};
  std::vector<sweep::RunDescriptor> descriptors;
  {
    // Descriptor 0: the dedicated init-signal protocol (the default).
    sweep::RunDescriptor d;
    d.workload = &workload;
    d.nodes = nodes;
    d.kind = sweep::Kind::kRips;
    descriptors.push_back(d);
  }
  for (const SimTime interval_us : intervals_us) {
    core::RipsConfig config;
    config.detect = core::DetectMode::kPeriodic;
    config.periodic_interval_ns = interval_us * 1000;
    sweep::RunDescriptor d;
    d.workload = &workload;
    d.nodes = nodes;
    d.kind = sweep::Kind::kRips;
    d.config = config;
    // Short intervals mean many reductions => slower simulation.
    d.cost_hint = 1.0 / static_cast<double>(interval_us);
    descriptors.push_back(d);
  }
  const auto results = sweep::run_sweep(descriptors, jobs);

  TextTable table;
  table.header({"detection", "phases", "Th (s)", "Ti (s)", "T (s)", "mu"});

  {
    RIPS_CHECK_MSG(results[0].ok, "sweep run failed");
    const auto& m = results[0].run.metrics;
    table.row({"init signal (reference)",
               cell(static_cast<long long>(m.system_phases)),
               cell(m.overhead_s(), 3), cell(m.idle_s(), 3),
               cell(m.exec_s(), 3), cell_pct(m.efficiency())});
  }
  table.separator();
  for (size_t k = 0; k < intervals_us.size(); ++k) {
    const sweep::RunResult& r = results[k + 1];
    RIPS_CHECK_MSG(r.ok, "sweep run failed");
    const auto& m = r.run.metrics;
    char label[64];
    std::snprintf(label, sizeof label, "periodic, %lld us",
                  static_cast<long long>(intervals_us[k]));
    table.row({label, cell(static_cast<long long>(m.system_phases)),
               cell(m.overhead_s(), 3), cell(m.idle_s(), 3),
               cell(m.exec_s(), 3), cell_pct(m.efficiency())});
  }
  table.print();
  std::printf(
      "\nExpected shape: short intervals pay reduction overhead, long\n"
      "intervals pay detection-latency idle; the signal protocol avoids\n"
      "both (which is why RIPS uses it).\n");
  return 0;
}
