// Bench-diff engine tests (src/obs/analysis/bench_diff): rips-bench-v1
// parsing and validation, the exact value-by-value diff, and the
// acceptance scenario — a makespan change (injected through the cost
// model's ns_per_work) is flagged, while diffing a deterministic run
// against its re-run passes.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "apps/nqueens.hpp"
#include "obs/analysis/bench_diff.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "sim/metrics.hpp"
#include "topo/topology.hpp"

namespace rips::obs::analysis {
namespace {

/// A valid one-run rips-bench-v1 document.
const std::string kValid = R"({
    "schema":"rips-bench-v1","suite":"core","quick":false,"nodes":16,
    "runs":[{"workload":"q","group":"g","scheduler":"s","policy":"p",
             "nodes":16,"tasks":10,"makespan_ns":100,"sequential_ns":800,
             "efficiency":0.5,"speedup":8,"overhead_s":0.01,"idle_s":0.001,
             "nonlocal_tasks":0,"system_phases":1,"monitors_ok":true,
             "measure_pass":"drain-sum",
             "metrics":{"counters":{"tasks.executed":10},"histograms":{
               "h":{"p50":1,"p95":2,"p99":4}}}}]})";

/// `text` with the first `from` replaced by `to`.
std::string edited(std::string text, const std::string& from,
                   const std::string& to) {
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

Document load(const std::string& text) {
  std::string error;
  std::optional<Document> doc = load_document(text, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return doc.has_value() ? std::move(*doc) : Document{};
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
             "monitors_ok":true,"measure_pass":"full",
             "metrics":{"counters":{"tasks.executed":5180},"histograms":{
               "phase.duration_us":{"count":4,"sum":100,"min":10,"max":40,
                 "p50":16,"p95":32,"p99":32,
                 "buckets":[{"le":16,"count":2},{"le":32,"count":2}]}}}}]})";
  std::string error;
  const auto doc = load_bench_doc(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_EQ(doc->runs.size(), 1u);
  const BenchRun& r = doc->runs[0];
  EXPECT_EQ(r.workload, "queens13");
  EXPECT_EQ(r.nodes, 16);
  EXPECT_EQ(r.key(), "queens13|rips|mwa|ANY-Lazy|n16");
}

TEST(BenchDiff, RejectsDocumentsThatBreakTheSchema) {
  ASSERT_TRUE(load_bench_doc(kValid).has_value());
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
    const std::string text = edited(kValid, e.from, e.to);
    std::string error;
    EXPECT_FALSE(load_bench_doc(text, &error).has_value()) << text;
    EXPECT_NE(error.find(e.error), std::string::npos)
        << e.error << " not in: " << error;
    // The diff's loader applies the same rules.
    EXPECT_FALSE(load_document(text).has_value()) << text;
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
  EXPECT_FALSE(load_document(R"({"schema":"other","runs":[]})", &error)
                   .has_value());
  EXPECT_NE(error.find("neither"), std::string::npos) << error;
  EXPECT_FALSE(load_bench_doc(R"({"schema":"rips-bench-v1"})").has_value());
  EXPECT_FALSE(load_bench_doc(
                   R"({"schema":"rips-bench-v1","runs":[{"workload":"w"}]})")
                   .has_value());
  EXPECT_FALSE(load_bench_doc("not json", &error).has_value());
  EXPECT_NE(error.find("invalid JSON"), std::string::npos) << error;
  EXPECT_FALSE(
      load_document_file("/nonexistent/path.json", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

// ----------------------------------------------------------- exact diff

TEST(BenchDiff, IdenticalDocsPass) {
  const std::vector<Difference> d = diff(load(kValid), load(kValid));
  EXPECT_TRUE(d.empty());
  EXPECT_NE(report(d).find("0 difference(s)"), std::string::npos);
  EXPECT_NE(report(d).find("PASS"), std::string::npos);
}

// No tolerance: the smallest change to any value anywhere in the document
// is one difference, named by its run key and member path.
TEST(BenchDiff, EveryChangedValueIsOneDifference) {
  const Document base = load(kValid);
  struct Change {
    std::string from, to, where, baseline, current;
  };
  const Change changes[] = {
      {R"("makespan_ns":100)", R"("makespan_ns":101)",
       "runs[q|g|s|p|n16].makespan_ns", "100", "101"},
      {R"("efficiency":0.5)", R"("efficiency":0.500001)",
       "runs[q|g|s|p|n16].efficiency", "0.5", "0.500001"},
      {R"("tasks.executed":10)", R"("tasks.executed":11)",
       "runs[q|g|s|p|n16].metrics.counters.tasks.executed", "10", "11"},
      {R"("p99":4)", R"("p99":5)",
       "runs[q|g|s|p|n16].metrics.histograms.h.p99", "4", "5"},
      {R"("monitors_ok":true)", R"("monitors_ok":false)",
       "runs[q|g|s|p|n16].monitors_ok", "true", "false"},
      {R"("suite":"core")", R"("suite":"full")", "suite", "\"core\"",
       "\"full\""},
      {R"("idle_s":0.001,)", R"("idle_s":0.001,"extra":[1],)",
       "runs[q|g|s|p|n16].extra", "(absent)", "[1 values]"},
  };
  for (const Change& c : changes) {
    const std::vector<Difference> d = diff(base, load(edited(kValid, c.from,
                                                             c.to)));
    ASSERT_EQ(d.size(), 1u) << c.to;
    EXPECT_EQ(d[0].where, c.where);
    EXPECT_EQ(d[0].baseline, c.baseline);
    EXPECT_EQ(d[0].current, c.current);
    const std::string text = report(d);
    EXPECT_NE(text.find(c.where), std::string::npos) << text;
    EXPECT_NE(text.find("FAIL"), std::string::npos) << text;
  }
}

TEST(BenchDiff, RunsAreMatchedByKeyAndMissingRunsFail) {
  const Document base = load(kValid);
  const std::vector<Difference> d =
      diff(base, load(edited(kValid, R"("workload":"q")",
                             R"("workload":"q2")")));
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].where, "runs[q|g|s|p|n16]");
  EXPECT_EQ(d[0].baseline, "{17 members}");
  EXPECT_EQ(d[0].current, "(absent)");
  EXPECT_EQ(d[1].where, "runs[q2|g|s|p|n16]");
  EXPECT_EQ(d[1].baseline, "(absent)");

  // Identity, not position: the same two runs in the other order diff
  // clean, and a document holding one run twice has a second identity
  // ("#2") that the baseline lacks.
  const std::string run = kValid.substr(kValid.find("{\"workload\""));
  const std::string one = run.substr(0, run.size() - 2);
  const std::string other = edited(one, R"("workload":"q")",
                                   R"("workload":"q2")");
  EXPECT_TRUE(diff(load(edited(kValid, one, one + "," + other)),
                   load(edited(kValid, one, other + "," + one)))
                  .empty());
  const std::vector<Difference> extra =
      diff(base, load(edited(kValid, one, one + "," + one)));
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_EQ(extra[0].where, "runs[q|g|s|p|n16#2]");
}

// ------------------------------------------------- acceptance scenario

/// Runs RIPS on queens at `ns_per_work` and writes the one-run bench
/// document, like bench/harness does.
Document measure(double ns_per_work) {
  const apps::TaskTrace trace = apps::build_nqueens_trace(9, 4);
  topo::Mesh mesh(4, 4);
  sched::Mwa mwa(mesh);
  sim::CostModel cost;
  cost.ns_per_work = ns_per_work;
  core::RipsEngine engine(mwa, cost, core::RipsConfig{});
  sim::BenchRow row;
  row.workload = "queens9";
  row.group = "rips";
  row.scheduler = "mwa";
  row.policy = "ANY-Lazy";
  row.nodes = 16;
  row.metrics = engine.run(trace);
  row.registry_json = engine.metrics_registry().to_json();
  return load(sim::bench_doc_json("acceptance", false, 16, {row}));
}

TEST(BenchDiff, DetectsWorkCostInjectedChangeAndPassesOnRerun) {
  const Document clean = measure(2000.0);

  // Determinism: an identical re-run diffs clean against itself.
  EXPECT_TRUE(diff(clean, measure(2000.0)).empty());

  // Make every task 8x as expensive: the makespan changes, and so does
  // everything timed.
  const std::vector<Difference> d = diff(clean, measure(8 * 2000.0));
  bool makespan_flagged = false;
  for (const Difference& e : d) {
    if (e.where == "runs[queens9|rips|mwa|ANY-Lazy|n16].makespan_ns") {
      makespan_flagged = true;
    }
  }
  EXPECT_TRUE(makespan_flagged) << report(d);
}

}  // namespace
}  // namespace rips::obs::analysis
