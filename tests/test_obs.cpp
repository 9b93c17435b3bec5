// Observability layer tests: trace sessions (ordering, ring overflow,
// Perfetto JSON), the utilization chart drawn from a trace, the metrics
// registry (histogram bucket edges, snapshots, JSON round-trip through the
// obs::json parser), invariant monitors (violations and churn accounting),
// the engine integration contract — attaching observers never changes the
// metrics — and docs/OBSERVABILITY.md's trace catalog, checked against
// what the engines emit.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/nqueens.hpp"
#include "apps/synthetic.hpp"
#include "balance/engine.hpp"
#include "balance/random_alloc.hpp"
#include "balance/rid.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/monitors.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "sim/fault.hpp"
#include "topo/topology.hpp"

namespace rips::obs {
namespace {

// -------------------------------------------------------- TraceSession

TEST(TraceSession, SortedEventsNestEnclosingSpansFirst) {
  TraceSession trace(2);
  // Child recorded before parent: sorted_events must still put the
  // enclosing (longer) span first so Perfetto nests them correctly.
  trace.span(0, {"phase", "child"}, 100, 150);
  trace.span(0, {"phase", "parent"}, 100, 400);
  trace.span(0, {"phase", "later"}, 200, 250);
  const auto events = trace.sorted_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "parent");
  EXPECT_STREQ(events[1].name, "child");
  EXPECT_STREQ(events[2].name, "later");
}

TEST(TraceSession, RingOverflowKeepsNewestAndCountsDropped) {
  TraceSession trace(1, /*capacity_per_track=*/4);
  for (i64 i = 0; i < 10; ++i) {
    trace.instant(0, {"t", "e", "i"}, i, i);
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  const auto events = trace.sorted_events();
  ASSERT_EQ(events.size(), 4u);
  // The oldest retained event is #6 (0..5 were overwritten).
  EXPECT_EQ(events.front().arg, 6);
  EXPECT_EQ(events.back().arg, 9);

  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceSession, MachineTrackIsSeparateFromNodeTracks) {
  TraceSession trace(2, 4);
  trace.span(kInvalidNode, {"phase", "system"}, 0, 10);
  trace.span(0, {"task", "task"}, 0, 5);
  trace.span(1, {"task", "task"}, 0, 5);
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceSession, JsonIsParseableAndCarriesEveryEvent) {
  TraceSession trace(2);
  trace.span(0, record::kTask, 1'000, 3'500, 42);
  trace.instant(1, {"fault", "crash"}, 2'000);
  trace.span(kInvalidNode, {"phase", "system_phase"}, 0, 5'000);

  std::string error;
  const auto doc = json::parse(trace.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  size_t spans = 0, instants = 0, metadata = 0;
  for (const json::Value& e : events->array) {
    const json::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") {
      spans += 1;
    } else if (ph->string == "i") {
      instants += 1;
    } else if (ph->string == "M") {
      metadata += 1;
    }
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(instants, 1u);
  EXPECT_GE(metadata, 3u);  // at least one name record per used track

  // The span payload survives the trip: id=42 on the node-0 task span.
  bool found_arg = false;
  for (const json::Value& e : events->array) {
    const json::Value* args = e.find("args");
    if (args != nullptr && args->find("id") != nullptr) {
      EXPECT_EQ(args->find("id")->as_i64(), 42);
      found_arg = true;
    }
  }
  EXPECT_TRUE(found_arg);
}

// ---------------------------------------------------- utilization chart

TEST(UtilizationChart, HasOneRowPerNodePlusFooter) {
  TraceSession trace(3);
  trace.span(0, record::kTask, 0, 100, 1);
  trace.span(kInvalidNode, record::kSystemPhase, 100, 120, 0);
  const std::string chart = utilization_chart(trace, 40);
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '\n'), 4);
  EXPECT_NE(chart.find('|'), std::string::npos);
}

TEST(UtilizationChart, EmptySessionStillDrawsEveryRow) {
  TraceSession trace(2);
  const std::string chart = utilization_chart(trace, 20);
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '\n'), 3);
}

TEST(UtilizationChart, OnlyChartRecordsSetTheTimeAxis) {
  // Node 0 is busy for the whole charted extent; a later message instant
  // and user-phase span must not stretch the axis and thin the row out.
  TraceSession trace(2);
  trace.span(0, record::kTask, 0, 100, 1);
  trace.instant(1, {"msg", "recv", "tasks"}, 1'000, 1);
  trace.span(kInvalidNode, record::kUserPhase, 0, 2'000, 1);
  trace.instant(1, record::kCrash, 50, 0);
  const std::string chart = utilization_chart(trace, 10);
  EXPECT_EQ(chart.substr(0, 15), "  0 @@@@@@@@@@\n");
  EXPECT_EQ(chart.substr(15, 15), "  1           \n");
  // The crash at half time lands in the middle footer bucket.
  EXPECT_EQ(chart.substr(30, 14), "         X    ");
}

// ------------------------------------------------ engine trace records

TEST(EngineTrace, RipsRecordsEveryTaskExactlyOnce) {
  const auto trace = apps::build_nqueens_trace(9, 3);
  topo::Mesh mesh(2, 2);
  sched::Mwa mwa(mesh);
  core::RipsEngine engine(mwa, sim::CostModel{}, core::RipsConfig{});
  TraceSession session(4, std::numeric_limits<size_t>::max());
  engine.set_obs(Obs{&session, nullptr});
  const auto m = engine.run(trace);

  u64 task_spans = 0;
  u64 system_phases = 0;
  SimTime busy_total = 0;
  std::vector<bool> seen(trace.size(), false);
  for (const TraceEvent& e : session.sorted_events()) {
    const std::string name = e.name;
    if (name == record::kTask.name) {
      ++task_spans;
      EXPECT_GT(e.dur_ns, 0);
      EXPECT_LE(e.start_ns + e.dur_ns, m.makespan_ns);
      ASSERT_LT(static_cast<u64>(e.arg), trace.size());
      EXPECT_FALSE(seen[static_cast<size_t>(e.arg)]);
      seen[static_cast<size_t>(e.arg)] = true;
      busy_total += e.dur_ns;
    } else if (name == record::kSystemPhase.name) {
      ++system_phases;
    }
  }
  EXPECT_EQ(task_spans, trace.size());
  EXPECT_EQ(system_phases, m.system_phases);
  EXPECT_EQ(busy_total, m.total_busy_ns);

  // The session is cleared at run start: a second run records as much.
  const size_t first = session.size();
  engine.run(trace);
  EXPECT_EQ(session.size(), first);
}

TEST(EngineTrace, DynamicTaskSpansNeverOverlapPerNode) {
  const auto trace = apps::build_nqueens_trace(10, 3);
  topo::Mesh mesh(2, 2);
  balance::RandomAlloc random(5);
  balance::DynamicEngine engine(mesh, sim::CostModel{}, random);
  TraceSession session(4, std::numeric_limits<size_t>::max());
  engine.set_obs(Obs{&session, nullptr});
  engine.run(trace);

  std::vector<std::vector<std::pair<SimTime, SimTime>>> per_node(4);
  for (const TraceEvent& e : session.sorted_events()) {
    if (std::string(e.category) != record::kTask.category) continue;
    per_node[static_cast<size_t>(e.node)].push_back(
        {e.start_ns, e.start_ns + e.dur_ns});
  }
  for (auto& intervals : per_node) {
    std::sort(intervals.begin(), intervals.end());
    for (size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_LE(intervals[i - 1].second, intervals[i].first);
    }
  }
}

// ------------------------------------------------------- trace catalog

/// One row of a docs/OBSERVABILITY.md trace-catalog table.
struct CatalogRow {
  std::vector<std::string> names;
  std::string kind;      ///< "span" | "instant"
  std::string category;
  std::string track;     ///< "machine" or a per-node track
  std::vector<std::string> args;
};

std::vector<std::string> backticked(const std::string& cell) {
  std::vector<std::string> out;
  for (size_t open = cell.find('`'); open != std::string::npos;) {
    const size_t close = cell.find('`', open + 1);
    if (close == std::string::npos) break;
    out.push_back(cell.substr(open + 1, close - open - 1));
    open = cell.find('`', close + 1);
  }
  return out;
}

/// The catalog table under the "### <heading>" section of the docs.
std::vector<CatalogRow> catalog(const std::string& heading) {
  std::ifstream in(std::string(RIPS_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  EXPECT_TRUE(in.good()) << "docs/OBSERVABILITY.md not found";
  std::vector<CatalogRow> rows;
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("### ", 0) == 0) {
      if (in_section) break;
      in_section = line.rfind("### " + heading, 0) == 0;
      continue;
    }
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    std::vector<std::string> cells;
    for (size_t at = 1, bar; (bar = line.find('|', at)) != std::string::npos;
         at = bar + 1) {
      cells.push_back(line.substr(at, bar - at));
    }
    if (cells.size() < 5) continue;
    CatalogRow row;
    row.names = backticked(cells[0]);
    row.kind = cells[1].substr(1, cells[1].find(' ', 1) - 1);
    const std::vector<std::string> category = backticked(cells[2]);
    row.category = category.empty() ? "" : category.front();
    row.track = cells[3].substr(1, cells[3].find(' ', 1) - 1);
    row.args = backticked(cells[4]);
    rows.push_back(std::move(row));
  }
  EXPECT_FALSE(rows.empty()) << "no catalog table under " << heading;
  return rows;
}

/// Every catalogued name occurs in the session, and every occurrence has
/// the documented kind, category, track and payload names.
void expect_matches_catalog(const TraceSession& session,
                            const std::vector<CatalogRow>& rows) {
  const std::vector<TraceEvent> events = session.sorted_events();
  for (const CatalogRow& row : rows) {
    for (const std::string& name : row.names) {
      u64 seen = 0;
      for (const TraceEvent& e : events) {
        if (name != e.name) continue;
        ++seen;
        const bool span = e.type == TraceEvent::Type::kSpan;
        EXPECT_EQ(span ? "span" : "instant", row.kind) << name;
        EXPECT_EQ(e.category, row.category) << name;
        EXPECT_EQ(e.node == kInvalidNode, row.track == "machine") << name;
        std::vector<std::string> args;
        if (e.arg_name != nullptr) args.push_back(e.arg_name);
        if (e.arg2_name != nullptr) args.push_back(e.arg2_name);
        EXPECT_EQ(args, row.args) << name;
        if (args != row.args) break;  // one report per name is enough
      }
      EXPECT_GT(seen, 0u) << name << " is catalogued but never emitted";
    }
  }
}

TEST(TraceCatalog, RipsFaultRunEmitsEveryCataloguedRecordAsDocumented) {
  // rips_cli --app=queens --n=11 --nodes=16 --fault-seed=7
  //   --crash-mtbf-ms=20 --drop-prob=0.02: crashes, recovery lines,
  // dropped detection messages, retries and suspicions all occur.
  const apps::TaskTrace trace = apps::build_nqueens_trace(11, 4);
  topo::Mesh mesh(4, 4);
  sched::Mwa mwa(mesh);
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  core::RipsEngine engine(mwa, cost, core::RipsConfig{});
  sim::FaultSpec spec;
  spec.horizon_ns = 1'000'000'000;
  spec.crash_mtbf_ns = 20e6;
  spec.drop_prob = 0.02;
  const sim::FaultPlan plan = sim::FaultPlan::generate(7, 16, spec);
  engine.set_fault_plan(&plan);
  TraceSession session(16, std::numeric_limits<size_t>::max());
  engine.set_obs(Obs{&session, nullptr});
  ASSERT_GT(engine.run(trace).crashes, 0u);
  expect_matches_catalog(session, catalog("RIPS engine"));
}

TEST(TraceCatalog, DynamicRunEmitsEveryCataloguedRecordAsDocumented) {
  // Several segments, so segment barriers occur.
  apps::SyntheticConfig config;
  config.num_roots = 64;
  config.num_segments = 3;
  const apps::TaskTrace trace = apps::build_synthetic_trace(config, 5);
  topo::Mesh mesh(4, 4);
  balance::Rid rid;
  balance::DynamicEngine engine(mesh, sim::CostModel{}, rid);
  TraceSession session(16, std::numeric_limits<size_t>::max());
  engine.set_obs(Obs{&session, nullptr});
  engine.run(trace);
  expect_matches_catalog(session, catalog("Dynamic engine"));
}

// ----------------------------------------------------- MetricsRegistry

TEST(MetricsRegistry, HistogramBucketBoundariesAreInclusiveUpper) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h", {0, 10, 100});
  h.observe(0);    // <= 0           -> bucket 0
  h.observe(1);    // (0, 10]        -> bucket 1
  h.observe(10);   // boundary value -> bucket 1 (inclusive upper)
  h.observe(11);   // (10, 100]      -> bucket 2
  h.observe(100);  // boundary value -> bucket 2
  h.observe(101);  // > 100          -> overflow bucket
  h.observe(-5);   // below first bound -> bucket 0

  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 2u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.min(), -5);
  EXPECT_EQ(h.max(), 101);
  EXPECT_EQ(h.sum(), 0 + 1 + 10 + 11 + 100 + 101 - 5);
}

TEST(MetricsRegistry, PercentileEdgeCasesNeverEmitGarbage) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h", {10});

  // Empty histogram: every percentile reads 0 — no NaN, no stale min/max.
  EXPECT_EQ(h.percentile(0.0), 0);
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_EQ(h.percentile(1.0), 0);
  EXPECT_EQ(h.p99(), 0);

  // One observation in the single finite bucket: every percentile IS that
  // observation (bucket upper bounds are clamped to the observed range).
  h.observe(7);
  EXPECT_EQ(h.percentile(0.0), 7);
  EXPECT_EQ(h.p50(), 7);
  EXPECT_EQ(h.p99(), 7);
  EXPECT_EQ(h.percentile(1.0), 7);

  // Out-of-domain q is clamped; NaN q must not reach the rank computation.
  EXPECT_EQ(h.percentile(-3.0), 7);
  EXPECT_EQ(h.percentile(42.0), 7);
  EXPECT_EQ(h.percentile(std::numeric_limits<double>::quiet_NaN()), 7);

  // Overflow bucket only: the percentile clamps to the observed max, not
  // to a bound that does not exist.
  Histogram& over = registry.histogram("over", {10});
  over.observe(1000);
  EXPECT_EQ(over.p50(), 1000);
  EXPECT_EQ(over.p99(), 1000);
}

// Regression: power-of-two buckets quantize hard, and a phase metric
// whose samples all land in ONE bucket used to report the bucket's upper
// edge for p50, p95 and p99 alike. The percentile now interpolates by
// rank inside [min, max] ∩ bucket range, so the triple stays ordered and
// informative even when the bucketing resolves nothing.
TEST(MetricsRegistry, SingleBucketPercentilesInterpolateByRank) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h", {0, 1000});
  for (i64 v = 101; v <= 200; ++v) h.observe(v);  // all in (0, 1000]

  // Exact rank lerp over [min=101, max=200], 100 samples: rank r maps to
  // 101 + 99*(r-1)/99 = 100 + r.
  EXPECT_EQ(h.p50(), 150);
  EXPECT_EQ(h.p95(), 195);
  EXPECT_EQ(h.p99(), 199);
  EXPECT_EQ(h.percentile(1.0), 200);
  EXPECT_EQ(h.percentile(0.0), 101);

  // Identical samples have zero spread: every percentile is the value.
  Histogram& flat = registry.histogram("flat", {0, 1000});
  for (int i = 0; i < 50; ++i) flat.observe(7);
  EXPECT_EQ(flat.p50(), 7);
  EXPECT_EQ(flat.p99(), 7);
}

TEST(MetricsRegistry, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c");
  Gauge& g = registry.gauge("g");
  Histogram& h = registry.histogram("h", {1, 2});
  c.add(5);
  g.set(-3);
  h.observe(1);
  registry.snapshot("phase=0");

  registry.reset();
  // The same references stay live and read zero — engines cache them
  // across runs.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(registry.snapshots().empty());
  EXPECT_EQ(&c, &registry.counter("c"));
}

TEST(MetricsRegistry, SnapshotCapCountsOverflow) {
  MetricsRegistry registry;
  registry.counter("c").add(1);
  for (size_t i = 0; i < MetricsRegistry::kMaxSnapshots + 2; ++i) {
    registry.snapshot("phase=" + std::to_string(i));
  }
  EXPECT_EQ(registry.snapshots().size(), MetricsRegistry::kMaxSnapshots);
  EXPECT_EQ(registry.snapshots_dropped(), 2u);
  EXPECT_EQ(registry.snapshots().front().label, "phase=0");
}

TEST(MetricsRegistry, JsonRoundTripsThroughTheParser) {
  MetricsRegistry registry;
  registry.counter("tasks.executed").add(123);
  registry.gauge("machine.live_nodes").set(32);
  registry.histogram("phase.duration_us", {10, 100}).observe(55);
  registry.snapshot("phase=0");

  std::string error;
  const auto doc = json::parse(registry.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;

  const json::Value* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("tasks.executed"), nullptr);
  EXPECT_EQ(counters->find("tasks.executed")->as_i64(), 123);

  const json::Value* gauges = doc->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->find("machine.live_nodes")->as_i64(), 32);

  const json::Value* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* h = hists->find("phase.duration_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->as_i64(), 1);
  EXPECT_EQ(h->find("sum")->as_i64(), 55);

  const json::Value* snaps = doc->find("snapshots");
  ASSERT_NE(snaps, nullptr);
  ASSERT_EQ(snaps->array.size(), 1u);
  EXPECT_EQ(snaps->array[0].find("label")->string, "phase=0");
}

// ------------------------------------------------------------ json

TEST(Json, ParserRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(json::parse("{\"a\":", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(json::parse("[1, 2,]").has_value());
  EXPECT_FALSE(json::parse("{\"a\":1} trailing").has_value());
}

TEST(Json, EscapeRoundTrips) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const auto doc = json::parse("{\"k\":" + json::quoted(nasty) + "}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("k")->string, nasty);
}

// ------------------------------------------------------ InvariantMonitor

TEST(InvariantMonitor, CleanChecksPass) {
  InvariantMonitor mon;
  mon.check_balance(0, {3, 3, 4, 3}, 13);
  mon.check_locality(0, 5, 5);
  mon.check_conservation(0, true, kInvalidNode, "");
  EXPECT_TRUE(mon.ok());
  EXPECT_EQ(mon.checks_run(), 3u);
  EXPECT_EQ(mon.churn_tasks(), 0);
  EXPECT_NE(mon.report().find("all 3 checks passed"), std::string::npos);
}

TEST(InvariantMonitor, Theorem1SpreadAndTotalViolations) {
  InvariantMonitor mon;
  mon.check_balance(2, {1, 4, 2}, 7);  // spread 3 > 1
  ASSERT_EQ(mon.violations().size(), 1u);
  EXPECT_EQ(mon.violations()[0].monitor, "theorem1");
  EXPECT_EQ(mon.violations()[0].phase, 2u);
  EXPECT_EQ(mon.violations()[0].node, 1);  // the overloaded rank

  mon.clear();
  mon.check_balance(0, {3, 3}, 7);  // balanced but total lost a task
  ASSERT_EQ(mon.violations().size(), 1u);
  EXPECT_NE(mon.violations()[0].detail.find("lost or invented"),
            std::string::npos);
}

TEST(InvariantMonitor, Theorem2BelowBoundIsViolationAboveIsChurn) {
  InvariantMonitor mon;
  mon.check_locality(1, 3, 5);  // beating a hard lower bound: broken
  ASSERT_EQ(mon.violations().size(), 1u);
  EXPECT_EQ(mon.violations()[0].monitor, "theorem2");

  mon.clear();
  mon.check_locality(1, 7, 5);  // 2 moves above the bound: churn, not error
  mon.check_locality(2, 6, 5);
  EXPECT_TRUE(mon.ok());
  EXPECT_EQ(mon.churn_tasks(), 3);
  EXPECT_EQ(mon.churn_phases(), 2u);
  EXPECT_NE(mon.report().find("transfer churn: 3"), std::string::npos);

  mon.clear();
  EXPECT_EQ(mon.churn_tasks(), 0);
  EXPECT_EQ(mon.checks_run(), 0u);
}

// --------------------------------------------------- engine integration

TEST(ObsIntegration, AttachingObserversNeverChangesTheMetrics) {
  const apps::TaskTrace trace = apps::build_nqueens_trace(9, 4);
  topo::Mesh mesh(4, 4);
  sched::Mwa mwa(mesh);
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;

  core::RipsEngine bare(mwa, cost, core::RipsConfig{});
  const sim::RunMetrics without = bare.run(trace);

  core::RipsEngine observed(mwa, cost, core::RipsConfig{});
  TraceSession session(16);
  InvariantMonitor monitor;
  observed.set_obs(Obs{&session, &monitor});
  const sim::RunMetrics with = observed.run(trace);

  // Bit-identical: observers only record simulation state, never shape it.
  EXPECT_EQ(without, with);
  EXPECT_GT(session.size(), 0u);
  EXPECT_TRUE(monitor.ok()) << monitor.report();
}

TEST(ObsIntegration, RegistryAgreesWithRunMetrics) {
  const apps::TaskTrace trace = apps::build_nqueens_trace(9, 4);
  topo::Mesh mesh(4, 4);
  sched::Mwa mwa(mesh);
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  core::RipsEngine engine(mwa, cost, core::RipsConfig{});
  const sim::RunMetrics m = engine.run(trace);

  const MetricsRegistry& registry = engine.metrics_registry();
  const Counter* executed = registry.find_counter("tasks.executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_EQ(executed->value(), m.num_tasks);
  EXPECT_EQ(registry.find_counter("phase.system")->value(), m.system_phases);
  EXPECT_EQ(registry.find_counter("tasks.nonlocal")->value(),
            m.nonlocal_tasks);
  // One labeled snapshot per system phase.
  EXPECT_EQ(registry.snapshots().size() + registry.snapshots_dropped(),
            m.system_phases);
}

TEST(ObsIntegration, FaultRunEmitsRecoverySpansAndConserves) {
  const apps::TaskTrace trace = apps::build_nqueens_trace(10, 4);
  topo::Mesh mesh(4, 4);
  sched::Mwa mwa(mesh);
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  core::RipsEngine engine(mwa, cost, core::RipsConfig{});

  sim::FaultSpec spec;
  spec.horizon_ns = 50'000'000;
  spec.crash_mtbf_ns = 10e6;
  spec.drop_prob = 0.02;
  const sim::FaultPlan plan = sim::FaultPlan::generate(7, 16, spec);

  TraceSession session(16);
  InvariantMonitor monitor;
  engine.set_obs(Obs{&session, &monitor});
  engine.set_fault_plan(&plan);
  const sim::RunMetrics m = engine.run(trace);

  ASSERT_GT(m.crashes, 0u);
  EXPECT_TRUE(monitor.ok()) << monitor.report();

  std::set<std::string> names;
  for (const TraceEvent& e : session.sorted_events()) names.insert(e.name);
  EXPECT_TRUE(names.count("crash"));
  EXPECT_TRUE(names.count("recovery"));
  EXPECT_TRUE(names.count("system_phase"));
  EXPECT_TRUE(names.count("user_phase"));
}

}  // namespace
}  // namespace rips::obs
