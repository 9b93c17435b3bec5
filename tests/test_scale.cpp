// Scaling frontier tests (docs/PERFORMANCE.md, Scaling): the `scale`
// synthetic preset, the tuning `harness --suite=scale` runs with, and the
// reference measuring pass. The `scale` ctest label also runs the quick
// scale suite itself (harness_golden_scale_quick in bench/CMakeLists.txt).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "exec/sweep/runner.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "sim/metrics.hpp"
#include "topo/topology.hpp"

namespace rips::sweep {
namespace {

apps::Workload scale_workload(u64 target) {
  apps::Workload w;
  w.group = "scale";
  w.name = "scale-" + std::to_string(target);
  w.trace = apps::build_synthetic_trace(apps::scale_config(target),
                                        /*seed=*/1);
  w.cost.ns_per_work = 2000.0;
  w.tasks_reported = w.trace.size();
  return w;
}

void expect_same_run(const RunResult& a, const RunResult& b,
                     const std::string& what) {
  ASSERT_TRUE(a.ok) << what << ": " << a.error;
  ASSERT_TRUE(b.ok) << what << ": " << b.error;
  const sim::RunMetrics& ma = a.run.metrics;
  const sim::RunMetrics& mb = b.run.metrics;
  EXPECT_EQ(ma.num_tasks, mb.num_tasks) << what;
  EXPECT_EQ(ma.makespan_ns, mb.makespan_ns) << what;
  EXPECT_EQ(ma.sequential_ns, mb.sequential_ns) << what;
  EXPECT_EQ(ma.total_busy_ns, mb.total_busy_ns) << what;
  EXPECT_EQ(ma.total_overhead_ns, mb.total_overhead_ns) << what;
  EXPECT_EQ(ma.total_idle_ns, mb.total_idle_ns) << what;
  EXPECT_EQ(ma.nonlocal_tasks, mb.nonlocal_tasks) << what;
  EXPECT_EQ(ma.system_phases, mb.system_phases) << what;
  EXPECT_EQ(a.run.registry.to_json(), b.run.registry.to_json()) << what;
}

// The preset's task count tracks the requested target: close enough that
// "a million-task trace" means a million tasks, loose enough to absorb the
// randomness of the spawn process.
TEST(ScalePreset, TraceSizeTracksTarget) {
  for (const u64 target : {u64{10'000}, u64{100'000}}) {
    const apps::TaskTrace trace =
        apps::build_synthetic_trace(apps::scale_config(target), /*seed=*/1);
    EXPECT_GT(trace.size(), target / 2) << "target " << target;
    EXPECT_LT(trace.size(), target * 2) << "target " << target;
    EXPECT_EQ(trace.num_segments(), 1u) << "target " << target;
  }
}

// The scale suite's determinism promise, at the executor level: the runs
// it issues produce byte-identical registries and identical metrics for
// any job count.
TEST(ScaleSweep, ResultsAreIdenticalAcrossJobCounts) {
  const apps::Workload w = scale_workload(8192);
  std::vector<RunDescriptor> descriptors;
  for (const i32 nodes : {64, 128}) {
    RunDescriptor d;
    d.workload = &w;
    d.nodes = nodes;
    d.kind = Kind::kRips;
    d.tuning.phase_snapshots = false;
    descriptors.push_back(d);
  }
  const std::vector<RunResult> serial = run_sweep(descriptors, /*jobs=*/1);
  const std::vector<RunResult> threaded = run_sweep(descriptors, /*jobs=*/4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    expect_same_run(serial[i], threaded[i],
                    "jobs=1 vs jobs=4, descriptor " + std::to_string(i));
  }
}

// The reference measuring pass must not change a single simulated bit:
// with snapshots off the registries are byte-identical, not just
// metric-equal. Only used_fast_measure (measure_pass) tells them apart.
TEST(ScaleSweep, FullMeasurePassChangesNothingObservable) {
  const apps::Workload w = scale_workload(8192);
  const topo::MeshShape shape = topo::paper_mesh_shape(64);
  const topo::Mesh mesh(shape.rows, shape.cols);
  sim::RunMetrics metrics[2];
  std::string registry[2];
  for (const bool full : {false, true}) {
    sched::Mwa mwa(mesh);
    core::RipsEngine engine(mwa, w.cost, core::RipsConfig{});
    engine.set_phase_snapshots(false);
    engine.set_full_measure_pass(full);
    metrics[full] = engine.run(w.trace);
    registry[full] = engine.metrics_registry().to_json();
  }
  EXPECT_TRUE(metrics[0].used_fast_measure);
  EXPECT_FALSE(metrics[1].used_fast_measure);
  metrics[1].used_fast_measure = true;
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_EQ(registry[0], registry[1]);
}

// Disabling phase snapshots strips the per-phase registry dumps but leaves
// every simulated metric untouched — the knob the scale suite relies on to
// keep the steady-state loop allocation-free.
TEST(ScaleSweep, SnapshotKnobOnlyAffectsSnapshots) {
  const apps::Workload w = scale_workload(8192);
  RunDescriptor with;
  with.workload = &w;
  with.nodes = 64;
  with.kind = Kind::kRips;
  RunDescriptor without = with;
  without.tuning.phase_snapshots = false;

  const std::vector<RunResult> results = run_sweep({with, without}, /*jobs=*/1);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  ASSERT_TRUE(results[1].ok) << results[1].error;
  const sim::RunMetrics& ma = results[0].run.metrics;
  const sim::RunMetrics& mb = results[1].run.metrics;
  EXPECT_EQ(ma.makespan_ns, mb.makespan_ns);
  EXPECT_EQ(ma.total_busy_ns, mb.total_busy_ns);
  EXPECT_EQ(ma.total_overhead_ns, mb.total_overhead_ns);
  EXPECT_EQ(ma.system_phases, mb.system_phases);
  // The snapshot-bearing registry is a strict superset.
  const std::string with_json = results[0].run.registry.to_json();
  const std::string without_json = results[1].run.registry.to_json();
  EXPECT_GT(with_json.size(), without_json.size());
}

}  // namespace
}  // namespace rips::sweep
