// Bench-diff engine tests (src/obs/analysis/bench_diff): rips-bench-v1
// parsing and validation, the per-metric regression gates, and the
// acceptance scenario — a synthetic makespan regression (injected through
// the cost model's ns_per_work) is flagged, while diffing a deterministic
// run against itself passes.
#include <gtest/gtest.h>

#include <string>

#include "apps/nqueens.hpp"
#include "obs/analysis/bench_diff.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "topo/topology.hpp"

namespace rips::obs::analysis {
namespace {

BenchRun make_run(double makespan_ns) {
  BenchRun r;
  r.workload = "queens13";
  r.group = "rips";
  r.scheduler = "mwa";
  r.policy = "ANY-Lazy";
  r.nodes = 16;
  r.tasks = 1000;
  r.makespan_ns = makespan_ns;
  r.sequential_ns = 10 * makespan_ns;
  r.efficiency = 0.8;
  r.speedup = 12.8;
  r.overhead_s = 0.010;
  r.idle_s = 0.005;
  r.monitors_ok = true;
  return r;
}

BenchDoc doc_of(const BenchRun& r) {
  BenchDoc d;
  d.suite = "core";
  d.nodes = 16;
  d.runs.push_back(r);
  return d;
}

// -------------------------------------------------------------- parsing

TEST(BenchDiff, ParsesRipsBenchV1) {
  const std::string text = R"({
    "schema":"rips-bench-v1","suite":"core","quick":false,"nodes":16,
    "runs":[{"workload":"queens13","group":"rips","scheduler":"mwa",
             "policy":"ANY-Lazy","nodes":16,"tasks":5180,
             "makespan_ns":123456789,"sequential_ns":999999999,
             "efficiency":0.81,"speedup":12.9,"overhead_s":0.01,
             "idle_s":0.002,"nonlocal_tasks":37,"system_phases":9,
             "monitors_ok":true,"measure_pass":"drain-sum",
             "metrics":{"counters":{"tasks.executed":5180},
                        "histograms":{}}}]})";
  std::string error;
  const auto doc = load_bench_doc(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_EQ(doc->runs.size(), 1u);
  const BenchRun& r = doc->runs[0];
  EXPECT_EQ(r.workload, "queens13");
  EXPECT_EQ(r.nodes, 16);
  EXPECT_DOUBLE_EQ(r.makespan_ns, 123456789.0);
  EXPECT_TRUE(r.monitors_ok);
  EXPECT_EQ(r.key(), "queens13|rips|mwa|ANY-Lazy|n16");
}

TEST(BenchDiff, RejectsDocumentsThatBreakTheSchema) {
  const std::string valid = R"({
    "schema":"rips-bench-v1","suite":"core","quick":false,"nodes":16,
    "runs":[{"workload":"q","group":"g","scheduler":"s","policy":"p",
             "nodes":16,"tasks":10,"makespan_ns":100,"sequential_ns":800,
             "efficiency":0.5,"speedup":8,"overhead_s":0.01,"idle_s":0.001,
             "nonlocal_tasks":0,"system_phases":1,"monitors_ok":true,
             "measure_pass":"drain-sum",
             "metrics":{"counters":{"tasks.executed":10},"histograms":{
               "h":{"p50":1,"p95":2,"p99":4}}}}]})";
  ASSERT_TRUE(load_bench_doc(valid).has_value());
  // Each edit breaks one rule; the error names it.
  struct Edit {
    std::string from, to, error;
  };
  const Edit edits[] = {
      {R"("measure_pass":"drain-sum",)", "", R"(missing "measure_pass")"},
      {"drain-sum", "fast", "measure_pass must be"},
      {R"("monitors_ok":true)", R"("monitors_ok":1)",
       R"("monitors_ok" has the wrong type)"},
      {R"("efficiency":0.5)", R"("efficiency":2)", "efficiency out of range"},
      {R"("idle_s":0.001)", R"("idle_s":-1)", R"("idle_s" < 0)"},
      {R"("tasks.executed":10)", R"("tasks.executed":0)", "tasks.executed"},
      {R"("p95":2)", R"("p95":8)", "percentiles must be non-decreasing"},
      {R"("monitors_ok":true,)", R"("monitors_ok":true,"fairness":0.9,)",
       R"("fairness" and "jobs" must appear together)"},
  };
  for (const Edit& e : edits) {
    std::string text = valid;
    const size_t at = text.find(e.from);
    ASSERT_NE(at, std::string::npos) << e.from;
    text.replace(at, e.from.size(), e.to);
    std::string error;
    EXPECT_FALSE(load_bench_doc(text, &error).has_value()) << text;
    EXPECT_NE(error.find(e.error), std::string::npos)
        << e.error << " not in: " << error;
  }
  std::string error;
  EXPECT_FALSE(load_bench_doc(R"({"schema":"rips-bench-v1","suite":"core",)"
                              R"("quick":false,"nodes":16,"runs":[]})",
                              &error)
                   .has_value());
  EXPECT_NE(error.find("runs must not be empty"), std::string::npos) << error;

  // Another schema, bare documents, text that is not JSON, and a file that
  // is not there.
  EXPECT_FALSE(load_bench_doc(R"({"schema":"other","runs":[]})", &error)
                   .has_value());
  EXPECT_NE(error.find("rips-bench-v1"), std::string::npos) << error;
  EXPECT_FALSE(load_bench_doc(R"({"schema":"rips-bench-v1"})").has_value());
  EXPECT_FALSE(load_bench_doc(
                   R"({"schema":"rips-bench-v1","runs":[{"workload":"w"}]})")
                   .has_value());
  EXPECT_FALSE(load_bench_doc("not json", &error).has_value());
  EXPECT_NE(error.find("invalid JSON"), std::string::npos) << error;
  EXPECT_FALSE(load_bench_file("/nonexistent/path.json", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

// ---------------------------------------------------------------- gates

TEST(BenchDiff, IdenticalDocsPass) {
  const BenchDoc d = doc_of(make_run(1e9));
  const DiffResult r = diff(d, d);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.regressions.empty());
  EXPECT_TRUE(r.improvements.empty());
  EXPECT_TRUE(r.missing.empty());
  EXPECT_NE(report(r).find("PASS"), std::string::npos);
}

TEST(BenchDiff, FlagsMakespanRegressionAboveTolerance) {
  const BenchDoc base = doc_of(make_run(1e9));
  const BenchDoc worse = doc_of(make_run(1.2e9));  // +20% > 10% tolerance
  const DiffResult r = diff(base, worse);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_EQ(r.regressions[0].metric, "makespan_ns");
  EXPECT_NE(report(r).find("REGRESSION"), std::string::npos);
  EXPECT_NE(report(r).find("FAIL"), std::string::npos);

  // +9% stays inside the default tolerance.
  EXPECT_TRUE(diff(base, doc_of(make_run(1.09e9))).ok());
  // A 20% speedup is reported as an improvement, not a failure.
  const DiffResult faster = diff(base, doc_of(make_run(0.8e9)));
  EXPECT_TRUE(faster.ok());
  ASSERT_EQ(faster.improvements.size(), 1u);
}

TEST(BenchDiff, OverheadGateHasAnAbsoluteFloor) {
  const BenchDoc base = doc_of(make_run(1e9));
  BenchRun worse = make_run(1e9);
  worse.overhead_s = 0.030;  // 3x the baseline 0.010 and above the floor
  EXPECT_FALSE(diff(base, doc_of(worse)).ok());

  // 3x a microscopic overhead is noise, not a regression.
  BenchRun tiny_base = make_run(1e9);
  tiny_base.overhead_s = 1e-6;
  BenchRun tiny_worse = make_run(1e9);
  tiny_worse.overhead_s = 3e-6;
  EXPECT_TRUE(diff(doc_of(tiny_base), doc_of(tiny_worse)).ok());
}

TEST(BenchDiff, GatesHistogramTailPercentiles) {
  BenchRun base = make_run(1e9);
  base.hist_pcts.push_back({"phase.duration_us", {100, 400, 800}});
  BenchRun worse = make_run(1e9);
  // p95 5x the baseline: beyond the 4x two-bucket allowance.
  worse.hist_pcts.push_back({"phase.duration_us", {100, 2000, 800}});
  const DiffResult r = diff(doc_of(base), doc_of(worse));
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_EQ(r.regressions[0].metric, "phase.duration_us.p95");

  // One pow2 bucket of wobble (2x) stays inside the gate; p50 shifts are
  // reported nowhere (only the tails gate).
  BenchRun wobble = make_run(1e9);
  wobble.hist_pcts.push_back({"phase.duration_us", {400, 800, 1600}});
  EXPECT_TRUE(diff(doc_of(base), doc_of(wobble)).ok());

  // A baseline without percentiles (pre-v7 docs) never gates.
  EXPECT_TRUE(diff(doc_of(make_run(1e9)), doc_of(worse)).ok());

  // The factor is tunable.
  DiffOptions strict;
  strict.percentile_factor = 1.5;
  EXPECT_FALSE(diff(doc_of(base), doc_of(wobble), strict).ok());
}

TEST(BenchDiff, ParsesMeasurePassAndPercentiles) {
  const std::string text = R"({
    "schema":"rips-bench-v1","suite":"core","quick":false,"nodes":16,
    "runs":[{"workload":"q","group":"g","scheduler":"s","policy":"p",
             "nodes":16,"tasks":10,"makespan_ns":1,"sequential_ns":10,
             "efficiency":0.5,"speedup":8,"overhead_s":0.01,"idle_s":0.001,
             "nonlocal_tasks":0,"system_phases":1,"monitors_ok":true,
             "measure_pass":"drain-sum",
             "metrics":{"counters":{"tasks.executed":10},"histograms":{
               "phase.duration_us":{"count":4,"sum":100,"min":10,"max":40,
                 "p50":16,"p95":32,"p99":32,
                 "buckets":[{"le":16,"count":2},{"le":32,"count":2}]}}}}]})";
  std::string error;
  const auto doc = load_bench_doc(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_EQ(doc->runs.size(), 1u);
  EXPECT_EQ(doc->runs[0].measure_pass, "drain-sum");
  ASSERT_EQ(doc->runs[0].hist_pcts.size(), 1u);
  EXPECT_EQ(doc->runs[0].hist_pcts[0].first, "phase.duration_us");
  EXPECT_EQ(doc->runs[0].hist_pcts[0].second[1], 32);
}

TEST(BenchDiff, FlagsEfficiencyDropMonitorsAndMissingRuns) {
  const BenchDoc base = doc_of(make_run(1e9));

  BenchRun slow = make_run(1e9);
  slow.efficiency = 0.70;  // -10pp > 5pp tolerance
  EXPECT_FALSE(diff(base, doc_of(slow)).ok());

  BenchRun broken = make_run(1e9);
  broken.monitors_ok = false;
  const DiffResult mon = diff(base, doc_of(broken));
  EXPECT_FALSE(mon.ok());
  EXPECT_EQ(mon.regressions[0].metric, "monitors_ok");

  BenchRun renamed = make_run(1e9);
  renamed.workload = "queens14";
  const DiffResult miss = diff(base, doc_of(renamed));
  EXPECT_FALSE(miss.ok());
  ASSERT_EQ(miss.missing.size(), 1u);
  ASSERT_EQ(miss.added.size(), 1u);
}

TEST(BenchDiff, CustomTolerancesApply) {
  const BenchDoc base = doc_of(make_run(1e9));
  DiffOptions strict;
  strict.makespan_rel_tol = 0.01;
  EXPECT_FALSE(diff(base, doc_of(make_run(1.05e9)), strict).ok());
  DiffOptions loose;
  loose.makespan_rel_tol = 0.50;
  EXPECT_TRUE(diff(base, doc_of(make_run(1.3e9)), loose).ok());
}

// ------------------------------------------------- acceptance scenario

/// Runs RIPS on queens at `ns_per_work` and rolls the metrics into a
/// one-run bench document, like bench/harness does.
BenchDoc measure(double ns_per_work) {
  const apps::TaskTrace trace = apps::build_nqueens_trace(9, 4);
  topo::Mesh mesh(4, 4);
  sched::Mwa mwa(mesh);
  sim::CostModel cost;
  cost.ns_per_work = ns_per_work;
  core::RipsEngine engine(mwa, cost, core::RipsConfig{});
  const sim::RunMetrics m = engine.run(trace);

  BenchRun r;
  r.workload = "queens9";
  r.group = "rips";
  r.scheduler = "mwa";
  r.policy = "ANY-Lazy";
  r.nodes = 16;
  r.tasks = static_cast<i64>(m.num_tasks);
  r.makespan_ns = static_cast<double>(m.makespan_ns);
  r.sequential_ns = static_cast<double>(m.sequential_ns);
  r.efficiency = m.efficiency();
  r.speedup = m.speedup();
  r.overhead_s = m.overhead_s();
  r.idle_s = m.idle_s();
  BenchDoc d;
  d.suite = "acceptance";
  d.nodes = 16;
  d.runs.push_back(r);
  return d;
}

TEST(BenchDiff, DetectsWorkCostInjectedRegressionAndPassesOnRerun) {
  const BenchDoc clean = measure(2000.0);

  // Determinism: an identical re-run diffs clean against itself.
  const BenchDoc rerun = measure(2000.0);
  EXPECT_EQ(clean.runs[0].makespan_ns, rerun.runs[0].makespan_ns);
  EXPECT_TRUE(diff(clean, rerun).ok());

  // Make every task 8x as expensive. Compute is a modest fraction of this
  // small run's makespan (scheduling phases dominate), so the factor must
  // be large enough to push the makespan well past the 10% gate.
  const BenchDoc slow = measure(8 * 2000.0);
  EXPECT_GT(slow.runs[0].makespan_ns, clean.runs[0].makespan_ns * 1.2);
  const DiffResult r = diff(clean, slow);
  EXPECT_FALSE(r.ok());
  bool makespan_flagged = false;
  for (const DiffEntry& e : r.regressions) {
    if (e.metric == "makespan_ns") makespan_flagged = true;
  }
  EXPECT_TRUE(makespan_flagged);
}

}  // namespace
}  // namespace rips::obs::analysis
