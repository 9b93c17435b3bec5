// Live telemetry layer tests (docs/OBSERVABILITY.md, "Live telemetry"):
// the TelemetryBus null-sink contract (attaching a bus never changes the
// metrics), the TimeSeriesSampler (most-recent-N retention, JSON export
// round-tripped through bench_diff's time-series loader, and the exact
// diff of two exports), the FlightRecorder black box (a sampler with a
// small ring: auto-dump on faults, both dump paths writing the same
// rips-timeseries-v1 bytes with every sample column intact, phase
// attribution),
// the per-job breakdown (one callback per user phase, never extra phase
// samples), and the histogram percentile derivation the snapshots carry.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "apps/nqueens.hpp"
#include "balance/engine.hpp"
#include "balance/rid.hpp"
#include "obs/analysis/bench_diff.hpp"
#include "obs/analysis/blackbox.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/live_status.hpp"
#include "obs/metrics.hpp"
#include "obs/monitors.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "sim/fault.hpp"
#include "topo/topology.hpp"

namespace rips::obs {
namespace {

PhaseSample sample_at(SimTime t0, SimTime t1, u64 phase = 0,
                      PhaseKind kind = PhaseKind::kSystem) {
  PhaseSample s{};
  s.kind = kind;
  s.phase = phase;
  s.t0 = t0;
  s.t1 = t1;
  return s;
}

TelemetryEvent crash_at(SimTime t, NodeId node) {
  TelemetryEvent e{};
  e.kind = TelemetryEvent::Kind::kCrash;
  e.t = t;
  e.node = node;
  e.detail = "test crash";
  return e;
}

/// A loaded series holds exactly what the sampler retained: the header,
/// every column of every sample, and every event.
void expect_series_matches(const analysis::Series& loaded,
                           const TimeSeriesSampler& sampler) {
  EXPECT_EQ(loaded.label, sampler.label());
  EXPECT_EQ(loaded.engine, sampler.engine());
  EXPECT_EQ(loaded.nodes, sampler.num_nodes());
  EXPECT_EQ(loaded.seen, sampler.seen());
  const std::vector<PhaseSample> samples = sampler.samples();
  ASSERT_EQ(loaded.samples.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(loaded.samples[i].kind, samples[i].kind) << "sample " << i;
    EXPECT_EQ(sample_values(loaded.samples[i]), sample_values(samples[i]))
        << "sample " << i;
  }
  const std::vector<TelemetryEvent> events = sampler.events();
  ASSERT_EQ(loaded.events.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(loaded.events[i].kind, events[i].kind);
    EXPECT_EQ(loaded.events[i].t, events[i].t);
    EXPECT_EQ(loaded.events[i].node, events[i].node);
    EXPECT_EQ(loaded.events[i].phase, events[i].phase);
    EXPECT_EQ(loaded.events[i].arg, events[i].arg);
    EXPECT_STREQ(loaded.events[i].detail, events[i].detail);
  }
}

/// A sample with every column distinct and nonzero, so a dropped or
/// swapped column cannot round-trip by accident.
PhaseSample full_sample(int i, PhaseKind kind = PhaseKind::kSystem) {
  PhaseSample s = sample_at(i * 100, i * 100 + 90, static_cast<u64>(i), kind);
  s.tasks = 1000 + i;
  s.moved = 2000 + i;
  s.imbalance = 3000 + i;
  s.comm_steps = 4000 + i;
  s.rts_total = 5000 + i;
  s.retries = 6000 + i;
  s.live_nodes = 7000 + i;
  s.drain_ns = -8000 - i;
  s.executed_total = 9000 + i;
  return s;
}

// ------------------------------------------------------------ TelemetryBus

class CountingSubscriber final : public TelemetrySubscriber {
 public:
  void on_run_begin(const RunStart&) override { ++begins; }
  void on_phase(const PhaseSample&) override { ++phases; }
  void on_event(const TelemetryEvent&) override { ++events; }
  void on_run_end(SimTime) override { ++ends; }

  int begins = 0;
  int phases = 0;
  int events = 0;
  int ends = 0;
};

TEST(TelemetryBus, FansOutToEverySubscriberAndUnsubscribes) {
  TelemetryBus bus;
  EXPECT_TRUE(bus.empty());
  CountingSubscriber a;
  CountingSubscriber b;
  bus.subscribe(&a);
  bus.subscribe(&a);  // double-subscribe is deduped
  bus.subscribe(&b);
  EXPECT_EQ(bus.subscriber_count(), 2u);

  bus.publish_run_begin(RunStart{"rips", 4, 100});
  bus.publish(sample_at(0, 10));
  bus.publish(crash_at(5, 1));
  bus.publish_run_end(10);
  EXPECT_EQ(a.begins, 1);
  EXPECT_EQ(a.phases, 1);
  EXPECT_EQ(a.events, 1);
  EXPECT_EQ(a.ends, 1);
  EXPECT_EQ(b.phases, 1);

  bus.unsubscribe(&a);
  bus.publish(sample_at(10, 20));
  EXPECT_EQ(a.phases, 1);
  EXPECT_EQ(b.phases, 2);
}

// ------------------------------------------------------ TimeSeriesSampler

TEST(TimeSeriesSampler, CapKeepsTheMostRecentSamplesAndCountsDropped) {
  TimeSeriesSampler::Options opts;
  opts.max_samples = 3;
  opts.max_events = 2;
  TimeSeriesSampler sampler(opts);
  for (int i = 0; i < 10; ++i) {
    sampler.on_phase(sample_at(i * 10, i * 10 + 10, static_cast<u64>(i)));
    sampler.on_event(crash_at(i * 10 + 5, i));
  }
  // Samples 7, 8, 9 retained, oldest first; 0..6 were overwritten.
  const std::vector<PhaseSample> samples = sampler.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].phase, 7u);
  EXPECT_EQ(samples[2].phase, 9u);
  EXPECT_EQ(sampler.seen(), 10u);
  EXPECT_EQ(sampler.dropped(), 7u);
  const std::vector<TelemetryEvent> events = sampler.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].node, 8);
  EXPECT_EQ(events[1].node, 9);
  // The export sees the retained window, in order.
  std::string error;
  const auto doc = analysis::load_timeseries_doc(sampler.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_EQ(doc->series[0].samples.size(), 3u);
  EXPECT_EQ(doc->series[0].samples[0].phase, 7u);
  EXPECT_EQ(doc->series[0].seen, 10u);
}

// A per-job row repeats its user phase with the job's own task count; the
// phase's collective retries stay on the phase's own row.
TEST(TimeSeriesSampler, PerJobRowsCarryTheJobsTasksButNoRetries) {
  TimeSeriesSampler sampler;
  const u64 executed[] = {3, 4};
  PhaseSample u = sample_at(10, 20, 0, PhaseKind::kUser);
  u.tasks = 7;
  u.retries = 6;
  u.drain_ns = 700;
  sampler.on_phase(u);
  sampler.on_job_phase(u, executed);
  const std::vector<PhaseSample> rows = sampler.samples();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(sampler.seen(), 3u);
  EXPECT_EQ(rows[0].job, -1);
  EXPECT_EQ(rows[0].retries, 6);
  for (size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(rows[j + 1].job, static_cast<i32>(j));
    EXPECT_EQ(rows[j + 1].tasks, executed[j]);
    EXPECT_EQ(rows[j + 1].retries, 0);
    EXPECT_EQ(rows[j + 1].drain_ns, 700);
  }
}

// Collective retries and the drain estimate belong to user phases, the
// only samples that carry them: on a RIPS run with message drops, user
// phases retransmit, and their samples must show it.
TEST(TelemetryIntegration, FaultyRunUserPhasesCarryRetriesAndDrain) {
  const apps::TaskTrace trace = apps::build_nqueens_trace(9, 4);
  topo::Mesh mesh(4, 4);
  sched::Mwa mwa(mesh);
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  core::RipsEngine engine(mwa, cost, core::RipsConfig{});
  sim::FaultSpec spec;
  spec.horizon_ns = 1'000'000'000;
  spec.drop_prob = 0.25;
  const sim::FaultPlan plan = sim::FaultPlan::generate(11, 16, spec);
  engine.set_fault_plan(&plan);
  TelemetryBus bus;
  TimeSeriesSampler sampler;
  bus.subscribe(&sampler);
  Obs o;
  o.bus = &bus;
  engine.set_obs(o);
  engine.run(trace);

  i64 retries = 0;
  i64 drain_ns = 0;
  for (const PhaseSample& s : sampler.samples()) {
    if (s.kind != PhaseKind::kUser || s.job >= 0) continue;
    retries += s.retries;
    drain_ns += s.drain_ns;
  }
  EXPECT_GT(retries, 0);
  EXPECT_GT(drain_ns, 0);
}

TEST(TimeSeriesSampler, JsonRoundTripsThroughTheLoader) {
  TimeSeriesSampler sampler;
  sampler.set_label("unit/RIPS/n4");
  sampler.on_run_begin(RunStart{"rips", 4, 42});
  for (int i = 0; i < 10; ++i) {
    PhaseSample s = sample_at(i * 10, i * 10 + 10, static_cast<u64>(i));
    s.imbalance = 7;
    sampler.on_phase(s);
  }
  sampler.on_event(crash_at(55, 2));
  sampler.on_run_end(100);

  std::string error;
  const auto doc = analysis::load_timeseries_doc(sampler.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->reason, "");
  ASSERT_EQ(doc->series.size(), 1u);
  const analysis::Series& s = doc->series[0];
  EXPECT_EQ(s.label, "unit/RIPS/n4");
  EXPECT_EQ(s.engine, "rips");
  EXPECT_EQ(s.nodes, 4);
  EXPECT_EQ(s.tasks, 42u);
  EXPECT_TRUE(s.complete);
  expect_series_matches(s, sampler);
}

TEST(TsDiff, NamesTheChangedSampleAndMissingSeries) {
  const auto make_doc = [](const std::string& label, i64 last_imbalance) {
    TimeSeriesSampler s;
    s.set_label(label);
    for (int i = 0; i < 4; ++i) {
      PhaseSample smp = sample_at(i * 10, i * 10 + 10, static_cast<u64>(i));
      smp.imbalance = i == 3 ? last_imbalance : 10;
      s.on_phase(smp);
    }
    std::string error;
    auto doc = analysis::load_document(s.to_json(), &error);
    EXPECT_TRUE(doc.has_value()) << error;
    return std::move(*doc);
  };
  const analysis::Document base = make_doc("w/RIPS/n8", 20);
  EXPECT_TRUE(analysis::diff(base, make_doc("w/RIPS/n8", 20)).empty());

  const std::vector<analysis::Difference> changed =
      analysis::diff(base, make_doc("w/RIPS/n8", 21));
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0].where, "series[w/RIPS/n8].samples[3].imbalance");
  EXPECT_EQ(changed[0].baseline, "20");
  EXPECT_EQ(changed[0].current, "21");

  const std::vector<analysis::Difference> renamed =
      analysis::diff(base, make_doc("w/RIPS/n16", 20));
  ASSERT_EQ(renamed.size(), 2u);
  EXPECT_EQ(renamed[0].where, "series[w/RIPS/n8]");
  EXPECT_EQ(renamed[0].current, "(absent)");
  EXPECT_EQ(renamed[1].where, "series[w/RIPS/n16]");
  EXPECT_NE(analysis::report(renamed).find("FAIL"), std::string::npos);
}

// --------------------------------------------------------- FlightRecorder

TEST(FlightRecorder, RingsKeepTheMostRecentWindowInOrder) {
  FlightRecorder rec("", {4, 2});
  for (int i = 0; i < 10; ++i) {
    rec.on_phase(sample_at(i * 10, i * 10 + 10, static_cast<u64>(i)));
    rec.on_event(crash_at(i * 10 + 5, i));
  }
  EXPECT_EQ(rec.seen(), 10u);
  EXPECT_EQ(rec.dumps_written(), 0u);  // empty dump path: never dumps
  const auto samples = rec.samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples.front().phase, 6u);  // oldest retained
  EXPECT_EQ(samples.back().phase, 9u);   // newest
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.back().node, 9);
}

TEST(FlightRecorder, IgnoresThePerJobBreakdown) {
  FlightRecorder rec;
  const u64 executed[] = {3, 4, 5};
  const PhaseSample u = sample_at(0, 10, 0, PhaseKind::kUser);
  rec.on_phase(u);
  rec.on_job_phase(u, executed);
  EXPECT_EQ(rec.seen(), 1u);
  ASSERT_EQ(rec.samples().size(), 1u);
  EXPECT_EQ(rec.samples()[0].job, -1);
}

TEST(FlightRecorder, AutoDumpsOnCrashEventAndLoadsBack) {
  const std::string path = ::testing::TempDir() + "rips_bb_auto.json";
  FlightRecorder rec(path);
  rec.set_label("unit/rips/n8");
  rec.on_run_begin(RunStart{"rips", 8, 1000});
  rec.on_phase(full_sample(0));
  rec.on_phase(sample_at(100, 200, 0, PhaseKind::kUser));
  rec.on_event(crash_at(150, 3));  // kCrash: triggers the dump
  EXPECT_EQ(rec.dumps_written(), 1u);

  std::string error;
  const auto doc = analysis::load_timeseries_file(path, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->reason, "fault");
  ASSERT_EQ(doc->series.size(), 1u);
  const analysis::Series& s = doc->series[0];
  EXPECT_EQ(s.nodes, 8);
  EXPECT_FALSE(s.complete);
  ASSERT_EQ(s.samples.size(), 2u);
  ASSERT_EQ(s.events.size(), 1u);
  expect_series_matches(s, rec);

  // Attribution: the crash at t=150 lands in the user phase [100, 200].
  const auto attributed = analysis::attribute_events(s);
  ASSERT_EQ(attributed.size(), 1u);
  ASSERT_NE(attributed[0].sample_index, analysis::Attribution::kNoPhase);
  EXPECT_EQ(s.samples[attributed[0].sample_index].kind, PhaseKind::kUser);
  const std::string report = analysis::blackbox_report(*doc);
  EXPECT_NE(report.find("reason=fault"), std::string::npos) << report;
  EXPECT_NE(report.find("user phase"), std::string::npos) << report;
  std::remove(path.c_str());
}

TEST(FlightRecorder, SignalSafeDumpIsParseable) {
  const std::string path = ::testing::TempDir() + "rips_bb_signal.json";
  FlightRecorder rec("", {4, 64});
  rec.set_label("label \"quoted\"");
  rec.on_run_begin(RunStart{"rips", 4, 10});
  for (int i = 0; i < 6; ++i) {
    rec.on_phase(full_sample(i, i % 2 == 0 ? PhaseKind::kSystem
                                           : PhaseKind::kUser));
  }
  rec.on_event(crash_at(33, 2));
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  rec.dump_signal_safe(fd, "signal:SIGABRT");
  ::close(fd);

  std::string error;
  const auto doc = analysis::load_timeseries_file(path, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->reason, "signal:SIGABRT");
  ASSERT_EQ(doc->series.size(), 1u);
  const analysis::Series& s = doc->series[0];
  EXPECT_EQ(s.engine, "rips");
  ASSERT_EQ(s.samples.size(), 4u);  // the ring wrapped: phases 2..5
  EXPECT_EQ(s.samples[0].phase, 2u);
  EXPECT_EQ(s.samples[3].comm_steps, 4005);
  EXPECT_EQ(s.samples[3].drain_ns, -8005);
  EXPECT_EQ(s.events.size(), 1u);
  expect_series_matches(s, rec);
  std::remove(path.c_str());
}

// Every dump goes through the signal-safe writer, and it writes the
// sampler's own series document inside the dump's envelope.
TEST(FlightRecorder, BothDumpPathsWriteTheSameBytes) {
  const std::string plain = ::testing::TempDir() + "rips_bb_plain.json";
  FlightRecorder rec("", {8, 4});
  rec.set_label("w/rips/n16");
  rec.on_run_begin(RunStart{"rips", 16, 99});
  for (int i = 0; i < 11; ++i) rec.on_phase(full_sample(i));
  rec.on_event(crash_at(250, 5));
  rec.on_run_end(1100);
  ASSERT_TRUE(rec.dump("manual", plain));

  const auto read = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    std::string text;
    for (int c; f != nullptr && (c = std::fgetc(f)) != EOF;) {
      text.push_back(static_cast<char>(c));
    }
    if (f != nullptr) std::fclose(f);
    return text;
  };
  EXPECT_EQ(read(plain),
            "{\"schema\":\"rips-timeseries-v1\",\"reason\":\"manual\","
            "\"series\":[" +
                rec.series_json() + "]}\n");
  std::remove(plain.c_str());
}

// std::terminate dumps once, under its own reason: the abort() that ends
// the process must not overwrite the dump from the signal path.
TEST(FlightRecorderDeathTest, TerminateDumpKeepsItsReason) {
  const std::string path = ::testing::TempDir() + "rips_bb_terminate.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        FlightRecorder rec(path);
        rec.on_phase(full_sample(0));
        rec.arm_process_hooks();
        std::terminate();
      },
      "");
  std::string error;
  const auto doc = analysis::load_timeseries_file(path, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->reason, "terminate");
  ASSERT_EQ(doc->series.size(), 1u);
  EXPECT_EQ(doc->series[0].samples.size(), 1u);
  std::remove(path.c_str());
}

// A full sampler export with per-job rows: attribution lands on the
// phase's own row, never on a per-job row that repeats its window.
TEST(BlackBoxReport, AttributionSkipsPerJobRows) {
  TimeSeriesSampler sampler;
  sampler.set_label("jobs/rips/n4");
  sampler.on_run_begin(RunStart{"rips", 4, 12});
  const u64 executed[] = {5, 7};
  sampler.on_phase(sample_at(0, 100, 0));
  const PhaseSample u = sample_at(100, 200, 0, PhaseKind::kUser);
  sampler.on_phase(u);
  sampler.on_job_phase(u, executed);
  sampler.on_event(crash_at(150, 1));

  std::string error;
  const auto doc = analysis::load_timeseries_doc(sampler.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const analysis::Series& s = doc->series[0];
  ASSERT_EQ(s.samples.size(), 4u);
  const auto attributed = analysis::attribute_events(s);
  ASSERT_EQ(attributed.size(), 1u);
  EXPECT_EQ(attributed[0].sample_index, 1u);
  const std::string report = analysis::blackbox_report(*doc);
  EXPECT_NE(report.find("reason=none"), std::string::npos) << report;
  EXPECT_NE(report.find("series jobs/rips/n4"), std::string::npos) << report;
  EXPECT_NE(report.find("in user phase 0"), std::string::npos) << report;
}

// ----------------------------------------------------- engine integration

struct EngineFixture {
  apps::TaskTrace trace = apps::build_nqueens_trace(9, 4);
  topo::Mesh mesh{4, 4};
  sched::Mwa mwa{mesh};
  sim::CostModel cost;

  EngineFixture() { cost.ns_per_work = 2000.0; }
};

TEST(TelemetryIntegration, AttachingTheBusNeverChangesTheMetrics) {
  EngineFixture f;
  core::RipsEngine bare(f.mwa, f.cost, core::RipsConfig{});
  const sim::RunMetrics without = bare.run(f.trace);

  core::RipsEngine observed(f.mwa, f.cost, core::RipsConfig{});
  TelemetryBus bus;
  TimeSeriesSampler sampler;
  FlightRecorder recorder;
  bus.subscribe(&sampler);
  bus.subscribe(&recorder);
  Obs o;
  o.bus = &bus;
  observed.set_obs(o);
  const sim::RunMetrics with = observed.run(f.trace);

  EXPECT_EQ(without, with);
  // The registries must also agree byte-for-byte — sinks are passive.
  EXPECT_EQ(bare.metrics_registry().to_json(),
            observed.metrics_registry().to_json());
  EXPECT_GT(sampler.seen(), 0u);
  EXPECT_TRUE(sampler.run_complete());
  EXPECT_EQ(sampler.makespan_ns(), with.makespan_ns);
}

TEST(TelemetryIntegration, RipsRunPublishesSystemAndUserPhases) {
  EngineFixture f;
  core::RipsEngine engine(f.mwa, f.cost, core::RipsConfig{});
  TelemetryBus bus;
  TimeSeriesSampler sampler;
  bus.subscribe(&sampler);
  Obs o;
  o.bus = &bus;
  engine.set_obs(o);
  const sim::RunMetrics m = engine.run(f.trace);

  u64 system = 0;
  u64 user = 0;
  for (const PhaseSample& s : sampler.samples()) {
    system += s.kind == PhaseKind::kSystem;
    user += s.kind == PhaseKind::kUser;
    EXPECT_GE(s.t1, s.t0);
  }
  EXPECT_EQ(system, m.system_phases);
  // Every system phase but the final (termination-detecting) one opens a
  // user phase.
  EXPECT_EQ(user, m.system_phases - 1);
  EXPECT_EQ(sampler.engine(), std::string("rips"));
  EXPECT_EQ(sampler.num_tasks(), f.trace.size());
  // The last user phase's executed_total reaches the run total.
  EXPECT_EQ(sampler.samples().back().executed_total, m.num_tasks);
}

TEST(TelemetryIntegration, FaultRunPublishesCrashAndRecoveryEvents) {
  const apps::TaskTrace trace = apps::build_nqueens_trace(10, 4);
  topo::Mesh mesh(4, 4);
  sched::Mwa mwa(mesh);
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  core::RipsEngine engine(mwa, cost, core::RipsConfig{});

  sim::FaultSpec spec;
  spec.horizon_ns = 50'000'000;
  spec.crash_mtbf_ns = 10e6;
  const sim::FaultPlan plan = sim::FaultPlan::generate(7, 16, spec);
  engine.set_fault_plan(&plan);

  TelemetryBus bus;
  TimeSeriesSampler sampler;
  const std::string dump_path = ::testing::TempDir() + "rips_bb_faultrun.json";
  FlightRecorder recorder(dump_path);
  bus.subscribe(&sampler);
  bus.subscribe(&recorder);
  Obs o;
  o.bus = &bus;
  engine.set_obs(o);
  const sim::RunMetrics m = engine.run(trace);

  ASSERT_GT(m.crashes, 0u);
  u64 crash_events = 0;
  u64 recovery_events = 0;
  for (const TelemetryEvent& e : sampler.events()) {
    crash_events += e.kind == TelemetryEvent::Kind::kCrash;
    recovery_events += e.kind == TelemetryEvent::Kind::kRecovery;
  }
  EXPECT_EQ(crash_events, m.crashes);
  EXPECT_EQ(recovery_events, m.recovery_phases);
  // The black box auto-dumped on the first crash; the dump loads and the
  // crash attributes to a phase window.
  EXPECT_GT(recorder.dumps_written(), 0u);
  std::string error;
  const auto doc = analysis::load_timeseries_file(dump_path, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->reason, "fault");
  ASSERT_EQ(doc->series.size(), 1u);
  EXPECT_EQ(doc->series[0].engine, "rips");
  // The last dump (at the last crash) holds the last crash event.
  ASSERT_FALSE(doc->series[0].events.empty());
  EXPECT_EQ(doc->series[0].events.back().kind, TelemetryEvent::Kind::kCrash);
  std::remove(dump_path.c_str());
}

TEST(TelemetryIntegration, DynamicEnginePublishesSegmentSamples) {
  EngineFixture f;
  balance::Rid strategy;
  balance::DynamicEngine engine(f.mesh, f.cost, strategy);
  TelemetryBus bus;
  TimeSeriesSampler sampler;
  bus.subscribe(&sampler);
  Obs o;
  o.bus = &bus;
  engine.set_obs(o);
  const sim::RunMetrics m = engine.run(f.trace);

  ASSERT_GT(sampler.samples().size(), 0u);
  for (const PhaseSample& s : sampler.samples()) {
    EXPECT_EQ(s.kind, PhaseKind::kSegment);
  }
  EXPECT_EQ(sampler.engine(), std::string("dynamic"));
  EXPECT_EQ(sampler.makespan_ns(), m.makespan_ns);
}

/// Round-robin ownership of `tasks` tasks by `num_jobs` jobs.
std::vector<i32> round_robin_jobs(size_t tasks, i32 num_jobs) {
  std::vector<i32> job_of(tasks);
  for (size_t i = 0; i < tasks; ++i) {
    job_of[i] = static_cast<i32>(i % static_cast<size_t>(num_jobs));
  }
  return job_of;
}

TEST(TelemetryIntegration, JobMapAddsPerJobSamplesWithoutChangingMetrics) {
  EngineFixture f;
  const std::vector<i32> job_of = round_robin_jobs(f.trace.size(), 3);

  core::RipsEngine bare(f.mwa, f.cost, core::RipsConfig{});
  const sim::RunMetrics without = bare.run(f.trace);

  core::RipsEngine labeled(f.mwa, f.cost, core::RipsConfig{});
  labeled.set_job_map(&job_of, 3);
  TelemetryBus bus;
  TimeSeriesSampler sampler;
  bus.subscribe(&sampler);
  Obs o;
  o.bus = &bus;
  labeled.set_obs(o);
  const sim::RunMetrics with = labeled.run(f.trace);
  // The job map adds the per-job accounting rows and changes nothing
  // else: scrubbing them must restore bit-identity with the bare run.
  ASSERT_EQ(with.jobs.size(), 3u);
  sim::RunMetrics scrubbed = with;
  scrubbed.jobs.clear();
  EXPECT_EQ(without, scrubbed);

  // The sampler's per-job rows: one per job per user phase, and the
  // per-job executed counts sum to the phase total.
  u64 job_samples = 0;
  u64 job_tasks = 0;
  u64 user_tasks = 0;
  for (const PhaseSample& s : sampler.samples()) {
    if (s.kind != PhaseKind::kUser) continue;
    if (s.job >= 0) {
      EXPECT_LT(s.job, 3);
      ++job_samples;
      job_tasks += s.tasks;
    } else {
      user_tasks += s.tasks;
    }
  }
  EXPECT_EQ(job_samples, 3 * (with.system_phases - 1));
  EXPECT_EQ(job_tasks, user_tasks);
  EXPECT_EQ(user_tasks, with.num_tasks);
}

// A run with more jobs than the black box's ring holds: the per-job
// breakdown goes to on_job_phase, so the ring still keeps the run's system
// and user phases and a crash attributes to the phase that covered it.
TEST(TelemetryIntegration, ManyJobsLeaveTheBlackBoxRingToPhases) {
  const apps::TaskTrace trace = apps::build_nqueens_trace(10, 4);
  topo::Mesh mesh(4, 4);
  sched::Mwa mwa(mesh);
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  core::RipsEngine engine(mwa, cost, core::RipsConfig{});
  sim::FaultSpec spec;
  spec.horizon_ns = 50'000'000;
  spec.crash_mtbf_ns = 10e6;
  const sim::FaultPlan plan = sim::FaultPlan::generate(7, 16, spec);
  engine.set_fault_plan(&plan);

  FlightRecorder recorder;
  const auto jobs = static_cast<i32>(FlightRecorder::kRing.max_samples + 44);
  const std::vector<i32> job_of = round_robin_jobs(trace.size(), jobs);
  engine.set_job_map(&job_of, jobs);
  TelemetryBus bus;
  bus.subscribe(&recorder);
  Obs o;
  o.bus = &bus;
  engine.set_obs(o);
  const sim::RunMetrics m = engine.run(trace);
  ASSERT_GT(m.crashes, 0u);
  ASSERT_LT(2 * m.system_phases, FlightRecorder::kRing.max_samples);

  u64 system = 0;
  u64 user = 0;
  u64 job_rows = 0;
  for (const PhaseSample& s : recorder.samples()) {
    system += s.kind == PhaseKind::kSystem;
    user += s.kind == PhaseKind::kUser;
    job_rows += s.job >= 0;
  }
  EXPECT_EQ(job_rows, 0u);
  EXPECT_EQ(system, m.system_phases);
  EXPECT_EQ(user, m.system_phases - 1);

  std::string error;
  const auto doc = analysis::load_timeseries_doc(recorder.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  u64 crashes = 0;
  const analysis::Series& series = doc->series[0];
  for (const analysis::Attribution& a : analysis::attribute_events(series)) {
    if (a.event->kind != TelemetryEvent::Kind::kCrash) continue;
    ++crashes;
    ASSERT_NE(a.sample_index, analysis::Attribution::kNoPhase);
    const PhaseSample& s = series.samples[a.sample_index];
    EXPECT_LE(s.t0, a.event->t);
    EXPECT_GE(s.t1, a.event->t);
  }
  EXPECT_EQ(crashes, m.crashes);
}

// The live status line counts phases, not per-job slices: on a multi-job
// run it sees each system and user phase once and ends at 100% of tasks.
TEST(TelemetryIntegration, LiveStatusCountsEachPhaseOnceOnMultiJobRuns) {
  EngineFixture f;
  const i32 jobs = 300;
  const std::vector<i32> job_of = round_robin_jobs(f.trace.size(), jobs);
  core::RipsEngine engine(f.mwa, f.cost, core::RipsConfig{});
  engine.set_job_map(&job_of, jobs);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  LiveStatusPrinter::Options lopts;
  lopts.out = out;
  LiveStatusPrinter live(lopts);
  TelemetryBus bus;
  bus.subscribe(&live);
  Obs o;
  o.bus = &bus;
  engine.set_obs(o);
  const sim::RunMetrics m = engine.run(f.trace);
  live.finish();

  const Counter* user = engine.metrics_registry().find_counter("phase.user");
  ASSERT_NE(user, nullptr);
  EXPECT_EQ(live.phases_seen(), m.system_phases + user->value());
  std::rewind(out);
  std::string text;
  for (int c; (c = std::fgetc(out)) != EOF;) text.push_back(static_cast<char>(c));
  std::fclose(out);
  const size_t last = text.rfind('\r');
  ASSERT_NE(last, std::string::npos);
  EXPECT_NE(text.find("tasks=100.0%", last), std::string::npos) << text;
}

TEST(TelemetryIntegration, UsedFastMeasureReflectsTheMeasuringPass) {
  EngineFixture f;
  core::RipsEngine fast(f.mwa, f.cost, core::RipsConfig{});
  EXPECT_TRUE(fast.run(f.trace).used_fast_measure);

  core::RipsEngine full(f.mwa, f.cost, core::RipsConfig{});
  full.set_full_measure_pass(true);
  EXPECT_FALSE(full.run(f.trace).used_fast_measure);
}

// ------------------------------------------------- histogram percentiles

TEST(HistogramPercentiles, InterpolatesWithinBuckets) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat", {10, 100, 1000});
  EXPECT_EQ(h.percentile(0.5), 0);  // empty histogram
  for (int i = 0; i < 98; ++i) h.observe(5);
  h.observe(50);
  h.observe(500);
  // p50 lands in the first bucket: rank 50 of 98 observations spread over
  // the bucket's observed value range [5, 10] -> 5 + 5*49/97 = 7. p99
  // reaches the second bucket (one observation: its clamped upper edge);
  // p100 the third.
  EXPECT_EQ(h.p50(), 7);
  EXPECT_EQ(h.p99(), 100);
  EXPECT_EQ(h.percentile(1.0), 500);  // clamped to the observed max
  EXPECT_EQ(h.percentile(0.0), 5);    // rank floors at the first observation

  // Snapshots carry the percentile triple.
  registry.snapshot("phase 0");
  ASSERT_EQ(registry.snapshots().size(), 1u);
  const auto& hists = registry.snapshots()[0].hists;
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].first, "lat");
  EXPECT_EQ(hists[0].second[0], 7);
  EXPECT_EQ(hists[0].second[2], 100);

  // The registry JSON exposes them for bench_diff.
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"p50\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"p99\": 100"), std::string::npos);
}

TEST(HistogramPercentiles, SingleValueHistogramPinsAllPercentiles) {
  Histogram h({1, 2, 4, 8});
  for (int i = 0; i < 5; ++i) h.observe(3);
  EXPECT_EQ(h.p50(), 3);  // clamped into [min, max] = [3, 3]
  EXPECT_EQ(h.p95(), 3);
  EXPECT_EQ(h.p99(), 3);
}

// Regression for the BENCH_scale symptom: every observation in one bucket
// used to report p50 == p95 == p99 == max (the bucket's upper edge for
// all three). Interpolation must spread the tails across [min, max].
TEST(HistogramPercentiles, SingleBucketDistributionSpreadsTails) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("phase.duration_us",
                                    {0, 1, 2, 4, 8, 16, 32, 64, 128});
  // 100 samples, all in the overflow bucket (> 128), spanning [1000, 9900].
  for (int i = 0; i < 100; ++i) h.observe(1000 + 1000 * (i % 10) - 100);
  ASSERT_EQ(h.min(), 900);
  ASSERT_EQ(h.max(), 9900);
  EXPECT_LT(h.p50(), h.p95());
  EXPECT_LT(h.p95(), h.p99());
  EXPECT_LE(h.p99(), h.max());
  // Rank interpolation over [900, 9900]: p50 at rank 50 of 100.
  EXPECT_EQ(h.p50(), 900 + 9000 * 49 / 99);
  EXPECT_EQ(h.percentile(1.0), 9900);

  // The fixed tails flow through to the registry JSON bench_diff reads.
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"p50\": " + std::to_string(900 + 9000 * 49 / 99)),
            std::string::npos);

  // All observations in the FIRST bucket (with a wide first bound) spread
  // the same way — the clamp to observed min/max does the work.
  Histogram one({1000000});
  for (int i = 1; i <= 10; ++i) one.observe(i * 10);
  EXPECT_EQ(one.p50(), 10 + 90 * 4 / 9);  // rank 5 of 10 over [10, 100]
  EXPECT_LT(one.p50(), one.p95());
  EXPECT_EQ(one.percentile(1.0), 100);
}

}  // namespace
}  // namespace rips::obs
