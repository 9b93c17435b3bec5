// Trace-analysis tests (src/obs/analysis): critical-path extraction with
// exact makespan attribution on phased RIPS traces, the event-graph
// fallback for dynamic-engine traces (send/recv correlation edges), the
// phase-profile report and the span aggregation — plus the JSON round trip
// through the exported Perfetto document.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "apps/nqueens.hpp"
#include "balance/engine.hpp"
#include "balance/rid.hpp"
#include "obs/analysis/analysis.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "sim/fault.hpp"
#include "topo/topology.hpp"

namespace rips::obs::analysis {
namespace {

sim::CostModel test_cost() {
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  return cost;
}

/// Runs RIPS (ANY-Lazy defaults) on a queens trace with tracing attached.
sim::RunMetrics run_rips(TraceSession& session,
                         const sim::FaultPlan* plan = nullptr) {
  const apps::TaskTrace trace = apps::build_nqueens_trace(9, 4);
  topo::Mesh mesh(4, 4);
  sched::Mwa mwa(mesh);
  core::RipsEngine engine(mwa, test_cost(), core::RipsConfig{});
  engine.set_obs(Obs{&session, nullptr});
  if (plan != nullptr) engine.set_fault_plan(plan);
  return engine.run(trace);
}

void expect_tiles_makespan(const CriticalPath& cp) {
  ASSERT_FALSE(cp.steps.empty());
  EXPECT_EQ(cp.steps.front().t0, 0);
  EXPECT_EQ(cp.steps.back().t1, cp.makespan);
  for (size_t i = 1; i < cp.steps.size(); ++i) {
    EXPECT_EQ(cp.steps[i - 1].t1, cp.steps[i].t0) << "gap before step " << i;
  }
}

// ------------------------------------------------ phased critical path

TEST(CriticalPath, PhasedAttributionSumsToMakespanExactly) {
  TraceSession session(16, 1 << 16);
  const sim::RunMetrics m = run_rips(session);

  const AnalysisTrace trace = AnalysisTrace::from_session(session);
  EXPECT_EQ(trace.dropped, 0u);
  const CriticalPath cp = critical_path(trace);
  EXPECT_TRUE(cp.phased);
  EXPECT_EQ(cp.makespan, m.makespan_ns);
  // The acceptance criterion: every tick of makespan is attributed to
  // exactly one category — the sum is exact, in integer nanoseconds.
  EXPECT_EQ(cp.attributed(), m.makespan_ns);
  expect_tiles_makespan(cp);
  EXPECT_GT(cp.by_category[static_cast<size_t>(Category::kCompute)], 0);
  EXPECT_GT(cp.by_category[static_cast<size_t>(Category::kSchedule)], 0);
  EXPECT_EQ(cp.by_category[static_cast<size_t>(Category::kRecovery)], 0);
}

TEST(CriticalPath, SurvivesJsonRoundTripExactly) {
  TraceSession session(16, 1 << 16);
  const sim::RunMetrics m = run_rips(session);

  std::string error;
  const auto parsed = AnalysisTrace::from_trace_json(session.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->num_nodes, 16);
  EXPECT_EQ(parsed->events.size(), session.size());

  // ns→fractional-µs→ns is exact, so the attribution is bit-identical to
  // the in-memory session's.
  const CriticalPath direct =
      critical_path(AnalysisTrace::from_session(session));
  const CriticalPath roundtrip = critical_path(*parsed);
  EXPECT_EQ(roundtrip.makespan, m.makespan_ns);
  EXPECT_EQ(roundtrip.attributed(), m.makespan_ns);
  EXPECT_EQ(roundtrip.by_category, direct.by_category);
  EXPECT_EQ(roundtrip.steps.size(), direct.steps.size());
}

TEST(CriticalPath, FaultyRunAttributesRecoveryAndStillSums) {
  sim::FaultSpec spec;
  spec.horizon_ns = 50'000'000;
  spec.crash_mtbf_ns = 10e6;
  const sim::FaultPlan plan = sim::FaultPlan::generate(7, 16, spec);

  TraceSession session(16, 1 << 16);
  const sim::RunMetrics m = run_rips(session, &plan);
  ASSERT_GT(m.crashes, 0u);

  const CriticalPath cp =
      critical_path(AnalysisTrace::from_session(session));
  EXPECT_EQ(cp.attributed(), m.makespan_ns);
  expect_tiles_makespan(cp);
  EXPECT_GT(cp.by_category[static_cast<size_t>(Category::kRecovery)], 0);
}

TEST(CriticalPath, TextAndJsonReportsCarryTheNumbers) {
  TraceSession session(16, 1 << 16);
  run_rips(session);
  const CriticalPath cp =
      critical_path(AnalysisTrace::from_session(session));
  const std::string text = cp.to_text();
  EXPECT_NE(text.find("critical path: makespan"), std::string::npos);
  EXPECT_NE(text.find("compute"), std::string::npos);
  EXPECT_NE(text.find("phased"), std::string::npos);
  const std::string json_doc = cp.to_json();
  EXPECT_NE(json_doc.find("\"schema\":\"rips-critical-path-v1\""),
            std::string::npos);
  EXPECT_NE(json_doc.find("\"attributed_ns\":" + std::to_string(cp.makespan)),
            std::string::npos);
}

// ------------------------------------------- event-graph critical path

TEST(CriticalPath, DynamicTraceUsesGraphModeAndCorrelationEdges) {
  const apps::TaskTrace trace = apps::build_nqueens_trace(9, 4);
  topo::Mesh mesh(4, 4);
  balance::Rid rid;
  balance::DynamicEngine engine(mesh, test_cost(), rid);
  TraceSession session(16, 1 << 16);
  engine.set_obs(Obs{&session, nullptr});
  const sim::RunMetrics m = engine.run(trace);
  ASSERT_EQ(session.dropped(), 0u);

  // Satellite contract: every recv instant pairs with exactly one send
  // carrying the same correlation id.
  std::set<i64> sends;
  std::set<i64> recvs;
  for (const TraceEvent& e : session.sorted_events()) {
    if (e.type != TraceEvent::Type::kInstant ||
        std::string(e.category) != "msg") {
      continue;
    }
    ASSERT_STREQ(e.arg2_name, "corr");
    if (std::string(e.name) == "send") {
      EXPECT_TRUE(sends.insert(e.arg2).second) << "duplicate send corr";
    } else {
      EXPECT_TRUE(recvs.insert(e.arg2).second) << "duplicate recv corr";
    }
  }
  ASSERT_FALSE(recvs.empty());
  for (const i64 corr : recvs) {
    EXPECT_TRUE(sends.count(corr)) << "recv without matching send " << corr;
  }

  const CriticalPath cp =
      critical_path(AnalysisTrace::from_session(session));
  EXPECT_FALSE(cp.phased);
  EXPECT_EQ(cp.makespan, m.makespan_ns);
  EXPECT_EQ(cp.attributed(), cp.makespan);
  expect_tiles_makespan(cp);
  EXPECT_GT(cp.by_category[static_cast<size_t>(Category::kCompute)], 0);
}

TEST(CriticalPath, EmptyTraceYieldsEmptyPath) {
  TraceSession session(4);
  const CriticalPath cp =
      critical_path(AnalysisTrace::from_session(session));
  EXPECT_EQ(cp.makespan, 0);
  EXPECT_EQ(cp.attributed(), 0);
  EXPECT_TRUE(cp.steps.empty());
}

// ----------------------------------------------------- phase profile

TEST(PhaseProfile, MatchesEngineViewOfTheRun) {
  const apps::TaskTrace trace = apps::build_nqueens_trace(9, 4);
  topo::Mesh mesh(4, 4);
  sched::Mwa mwa(mesh);
  core::RipsEngine engine(mwa, test_cost(), core::RipsConfig{});
  TraceSession session(16, 1 << 16);
  engine.set_obs(Obs{&session, nullptr});
  const sim::RunMetrics m = engine.run(trace);

  const PhaseProfile p =
      phase_profile(AnalysisTrace::from_session(session));
  EXPECT_EQ(p.makespan, m.makespan_ns);
  EXPECT_EQ(p.num_nodes, 16);
  EXPECT_EQ(p.system_phases.size(), engine.phases().size());
  EXPECT_EQ(p.user_phases.size(), engine.phases().size() - 1);
  // Phases tile the run: system + user time is the whole makespan.
  EXPECT_EQ(p.system_total_ns + p.user_total_ns, m.makespan_ns);
  // Per-node task spans reproduce the busy total.
  EXPECT_EQ(p.compute_total_ns, m.total_busy_ns);
  u64 tasks = 0;
  for (const NodeRow& nr : p.nodes) tasks += nr.tasks;
  EXPECT_EQ(tasks, m.num_tasks);
  for (size_t i = 0; i < p.system_phases.size(); ++i) {
    const PhaseSample& s = engine.phases()[i];
    EXPECT_EQ(p.system_phases[i].start_ns, s.t0);
    EXPECT_EQ(p.system_phases[i].duration_ns, s.t1 - s.t0);
    EXPECT_EQ(p.system_phases[i].scheduled, static_cast<i64>(s.tasks));
    EXPECT_EQ(p.system_phases[i].comm_steps, s.comm_steps);
    EXPECT_EQ(p.system_phases[i].moved, static_cast<i64>(s.moved));
  }

  const std::string text = p.to_text();
  EXPECT_NE(text.find("phase profile: makespan"), std::string::npos);
  const std::string json_doc = p.to_json();
  EXPECT_NE(json_doc.find("\"schema\":\"rips-phase-profile-v1\""),
            std::string::npos);
}

// ------------------------------------------------------- aggregation

TEST(TopSpans, AggregatesTaskTime) {
  TraceSession session(16, 1 << 16);
  const sim::RunMetrics m = run_rips(session);
  const auto agg = top_spans(AnalysisTrace::from_session(session), 32);
  ASSERT_FALSE(agg.empty());
  bool found = false;
  for (const SpanAgg& a : agg) {
    if (a.name == "task") {
      found = true;
      EXPECT_EQ(a.count, m.num_tasks);
      EXPECT_EQ(a.total_ns, m.total_busy_ns);
    }
  }
  EXPECT_TRUE(found);
  // Sorted by total time, descending.
  for (size_t i = 1; i < agg.size(); ++i) {
    EXPECT_GE(agg[i - 1].total_ns, agg[i].total_ns);
  }
}

TEST(AnalysisTrace, RejectsMalformedTraceJson) {
  std::string error;
  EXPECT_FALSE(AnalysisTrace::from_trace_json("{]", &error).has_value());
  EXPECT_FALSE(AnalysisTrace::from_trace_json("{}", &error).has_value());
  EXPECT_NE(error.find("traceEvents"), std::string::npos);
  EXPECT_FALSE(
      AnalysisTrace::from_trace_json("{\"traceEvents\":[{\"ph\":\"X\"}]}",
                                     &error)
          .has_value());
}

}  // namespace
}  // namespace rips::obs::analysis
