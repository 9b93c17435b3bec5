// Sweep executor (src/exec/sweep): the determinism contract — results are
// committed in descriptor order and are byte-identical for any job count —
// plus the fork-join failure semantics (every index runs; the lowest
// failing index's exception is rethrown; one run's failure never poisons
// its siblings). Runs multi-threaded on purpose: the CI TSan job executes
// this binary to certify the executor data-race-free.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <sched.h>

#include "apps/synthetic.hpp"
#include "exec/sweep/runner.hpp"
#include "exec/sweep/sweep.hpp"

namespace rips::sweep {
namespace {

// --------------------------------------------------------- parallel_for

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr size_t kCount = 100;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, 8, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, ZeroCountIsANoop) {
  parallel_for(0, 4, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, AdversarialLatencyStillCommitsBySlot) {
  // Early indices sleep longest, so completion order is roughly the
  // REVERSE of index order — each result must still land in its own slot.
  constexpr size_t kCount = 16;
  std::vector<int> out(kCount, -1);
  parallel_for(kCount, 8, [&](size_t i) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(200 * (kCount - i)));
    out[i] = static_cast<int>(i) * 7;
  });
  for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(out[i], static_cast<int>(i) * 7);
}

TEST(ParallelFor, ExceptionDoesNotPoisonSiblings) {
  constexpr size_t kCount = 32;
  std::vector<std::atomic<int>> hits(kCount);
  const auto body = [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    if (i == 9 || i == 3 || i == 20) {
      throw std::runtime_error("boom " + std::to_string(i));
    }
  };
  try {
    parallel_for(kCount, 8, body);
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    // Deterministic: the LOWEST failing index wins, regardless of which
    // thread hit its exception first.
    EXPECT_STREQ(e.what(), "boom 3");
  }
  for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, InlinePathHasTheSameFailureContract) {
  std::vector<int> ran;
  try {
    parallel_for(5, 1, [&](size_t i) {
      ran.push_back(static_cast<int>(i));
      if (i >= 2) throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 2");
  }
  EXPECT_EQ(ran.size(), 5u);  // siblings after the throw still ran
}

TEST(ParallelFor, ResolveJobs) {
  EXPECT_EQ(resolve_jobs(3), 3);
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-1), 1);
}

// --jobs=0 counts the CPUs the process may use, not the host's: a thread
// narrowed to one CPU (as under `taskset -c 0`) resolves it to one job.
TEST(ParallelFor, ResolveJobsZeroCountsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const i32 narrowed = resolve_jobs(0);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(narrowed, 1);
  EXPECT_EQ(resolve_jobs(0), CPU_COUNT(&saved));
}

// ----------------------------------------------------------- run_sweep

apps::Workload small_workload(u64 seed) {
  apps::SyntheticConfig config;
  config.num_roots = 200;
  config.spawn_prob = 0.4;
  config.max_depth = 3;
  apps::Workload w;
  w.group = "Synthetic";
  w.name = "sweep-test-" + std::to_string(seed);
  w.trace = apps::build_synthetic_trace(config, seed);
  w.cost.ns_per_work = 2000.0;
  return w;
}

std::vector<RunDescriptor> mixed_descriptors(const apps::Workload& a,
                                             const apps::Workload& b) {
  std::vector<RunDescriptor> descriptors;
  for (const apps::Workload* w : {&a, &b}) {
    for (const Kind kind :
         {Kind::kRips, Kind::kRandom, Kind::kGradient, Kind::kRid, Kind::kSid}) {
      RunDescriptor d;
      d.workload = w;
      d.nodes = 16;
      d.kind = kind;
      d.monitor = true;
      descriptors.push_back(d);
    }
  }
  // RIPS policy variant with a different config, to cover config plumbing.
  RunDescriptor d;
  d.workload = &a;
  d.nodes = 16;
  d.kind = Kind::kRips;
  d.config.lifo_execution = true;
  descriptors.push_back(d);
  return descriptors;
}

TEST(RunSweep, RegistriesAreIdenticalForAnyJobCount) {
  const apps::Workload a = small_workload(1);
  const apps::Workload b = small_workload(2);
  const auto descriptors = mixed_descriptors(a, b);

  const auto serial = run_sweep(descriptors, 1);
  const auto wide = run_sweep(descriptors, 8);
  ASSERT_EQ(serial.size(), descriptors.size());
  ASSERT_EQ(wide.size(), descriptors.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    ASSERT_TRUE(wide[i].ok) << wide[i].error;
    EXPECT_EQ(serial[i].run.strategy, wide[i].run.strategy) << i;
    EXPECT_EQ(serial[i].run.metrics.makespan_ns, wide[i].run.metrics.makespan_ns)
        << i;
    // The registry JSON covers every counter, histogram and per-phase
    // snapshot — byte equality here is the determinism contract.
    EXPECT_EQ(serial[i].run.registry.to_json(), wide[i].run.registry.to_json())
        << i;
    EXPECT_TRUE(serial[i].monitors_ok) << serial[i].monitor_report;
    EXPECT_TRUE(wide[i].monitors_ok) << wide[i].monitor_report;
  }
}

TEST(RunSweep, CostHintsReorderExecutionButNotResults) {
  const apps::Workload a = small_workload(3);
  const apps::Workload b = small_workload(4);
  auto descriptors = mixed_descriptors(a, b);
  const auto plain = run_sweep(descriptors, 4);
  // Reversed start order: hints only schedule, never change commitments.
  for (size_t i = 0; i < descriptors.size(); ++i) {
    descriptors[i].cost_hint = static_cast<double>(i);
  }
  const auto hinted = run_sweep(descriptors, 4);
  ASSERT_EQ(plain.size(), hinted.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    ASSERT_TRUE(plain[i].ok && hinted[i].ok);
    EXPECT_EQ(plain[i].run.registry.to_json(), hinted[i].run.registry.to_json())
        << i;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(RunSweep, PerRunTracesAreIdenticalForAnyJobCount) {
  const apps::Workload a = small_workload(5);
  std::vector<RunDescriptor> descriptors;
  for (const Kind kind : {Kind::kRips, Kind::kRid}) {
    RunDescriptor d;
    d.workload = &a;
    d.nodes = 8;
    d.kind = kind;
    d.collect_trace = true;
    descriptors.push_back(d);
  }
  const auto serial = run_sweep(descriptors, 1);
  const auto wide = run_sweep(descriptors, 8);
  for (size_t i = 0; i < descriptors.size(); ++i) {
    ASSERT_TRUE(serial[i].trace != nullptr);
    ASSERT_TRUE(wide[i].trace != nullptr);
    const std::string p1 =
        testing::TempDir() + "sweep_trace_serial_" + std::to_string(i) + ".json";
    const std::string p2 =
        testing::TempDir() + "sweep_trace_wide_" + std::to_string(i) + ".json";
    ASSERT_TRUE(serial[i].trace->write_json(p1));
    ASSERT_TRUE(wide[i].trace->write_json(p2));
    EXPECT_EQ(slurp(p1), slurp(p2)) << i;
    std::remove(p1.c_str());
    std::remove(p2.c_str());
  }
}

TEST(RunSweep, AFailingRunDoesNotPoisonItsSiblings) {
  const apps::Workload a = small_workload(6);
  std::vector<RunDescriptor> descriptors;
  for (int i = 0; i < 6; ++i) {
    RunDescriptor d;
    d.workload = &a;
    d.nodes = 8;
    d.kind = Kind::kRips;
    descriptors.push_back(d);
  }
  descriptors[2].workload = nullptr;  // invalid => this run throws
  const auto results = run_sweep(descriptors, 4);
  ASSERT_EQ(results.size(), 6u);
  for (size_t i = 0; i < results.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(results[i].ok);
      EXPECT_NE(results[i].error.find("lacks a workload"), std::string::npos)
          << results[i].error;
    } else {
      EXPECT_TRUE(results[i].ok) << results[i].error;
      EXPECT_GT(results[i].run.metrics.num_tasks, 0u);
    }
  }
}

TEST(RunSweep, MatchesDirectRunStrategy) {
  const apps::Workload a = small_workload(7);
  RunDescriptor d;
  d.workload = &a;
  d.nodes = 16;
  d.kind = Kind::kRips;
  const auto results = run_sweep({d}, 2);
  ASSERT_TRUE(results[0].ok);
  const StrategyRun direct = run_strategy(a, 16, Kind::kRips);
  EXPECT_EQ(direct.metrics.makespan_ns, results[0].run.metrics.makespan_ns);
  EXPECT_EQ(direct.registry.to_json(), results[0].run.registry.to_json());
}

// ------------------------------------------------- shared cost tables

/// A RIPS row run alone through run_strategy, with its own cost table and
/// the sinks run_one gives a monitored, sampled row.
struct AloneRun {
  StrategyRun run;
  std::string timeseries;
  bool monitors_ok = false;
};

AloneRun run_alone(const RunDescriptor& d) {
  obs::InvariantMonitor monitor;
  obs::TimeSeriesSampler sampler;
  sampler.set_label(d.workload->name + "/" + kind_name(d.kind) + "/n" +
                    std::to_string(d.nodes));
  obs::TelemetryBus bus;
  bus.subscribe(&sampler);
  obs::Obs o;
  o.monitor = &monitor;
  o.bus = &bus;
  AloneRun out;
  out.run = run_strategy(*d.workload, d.nodes, d.kind, d.rid_u, d.config, o,
                         d.fault_plan, d.tuning);
  out.timeseries = sampler.to_json();
  out.monitors_ok = monitor.ok();
  return out;
}

// RIPS rows that replay one workload under one local policy share one
// drain-cost table: the first row of the key to start builds it, every row
// reads it, the last frees it. {ANY, ALL} x {Lazy, Eager} x {count,
// weighted} at two machine sizes over two workloads (a fault plan on one
// row, which shares too), plus a key with one RIPS row and a dynamic row.
// At --jobs=1 and --jobs=3 every row equals the same row run alone with
// its own table — metrics, registry JSON, system-phase samples and the
// whole time series — and each key's table is built exactly once.
TEST(RunSweep, SharedCostTablesMatchRowsRunAlone) {
  const apps::Workload a = small_workload(21);
  const apps::Workload b = small_workload(22);
  const apps::Workload c = small_workload(23);
  sim::FaultPlan crash;
  crash.crashes.push_back({/*node=*/5, /*time_ns=*/2'000'000});
  std::vector<RunDescriptor> descriptors;
  for (const apps::Workload* w : {&a, &b}) {
    for (const auto global :
         {core::GlobalPolicy::kAny, core::GlobalPolicy::kAll}) {
      for (const auto local :
           {core::LocalPolicy::kLazy, core::LocalPolicy::kEager}) {
        for (const bool weighted : {false, true}) {
          for (const i32 nodes : {16, 64}) {
            RunDescriptor d;
            d.workload = w;
            d.nodes = nodes;
            d.config.global = global;
            d.config.local = local;
            d.config.weighted = weighted;
            d.monitor = true;
            d.collect_timeseries = true;
            d.cost_hint = static_cast<double>(nodes);
            descriptors.push_back(d);
          }
        }
      }
    }
  }
  descriptors.front().fault_plan = &crash;
  RunDescriptor single;
  single.workload = &c;
  single.nodes = 16;
  single.monitor = true;
  single.collect_timeseries = true;
  descriptors.push_back(single);
  RunDescriptor dynamic = single;
  dynamic.workload = &a;
  dynamic.kind = Kind::kRid;
  descriptors.push_back(dynamic);

  std::vector<AloneRun> alone;
  for (const RunDescriptor& d : descriptors) alone.push_back(run_alone(d));
  ASSERT_EQ(alone.front().run.metrics.crashes, 1u);

  for (const i32 jobs : {1, 3}) {
    const auto results = run_sweep(descriptors, jobs);
    ASSERT_EQ(results.size(), descriptors.size());
    // Tasks whose costs were computed, per (workload, local policy) key.
    std::map<std::pair<const apps::Workload*, core::LocalPolicy>, u64> built;
    for (size_t i = 0; i < results.size(); ++i) {
      const RunDescriptor& d = descriptors[i];
      const std::string what = "jobs=" + std::to_string(jobs) + " row " +
                               std::to_string(i) + " " + d.config.name() +
                               (d.config.weighted ? " weighted" : "") + " n" +
                               std::to_string(d.nodes);
      ASSERT_TRUE(results[i].ok) << what << ": " << results[i].error;
      const StrategyRun& shared = results[i].run;
      const StrategyRun& own = alone[i].run;
      EXPECT_EQ(shared.metrics, own.metrics) << what;
      EXPECT_EQ(shared.registry.to_json(), own.registry.to_json()) << what;
      EXPECT_EQ(shared.phases, own.phases) << what;
      ASSERT_TRUE(results[i].timeseries != nullptr) << what;
      EXPECT_EQ(results[i].timeseries->to_json(), alone[i].timeseries) << what;
      EXPECT_TRUE(results[i].monitors_ok) << results[i].monitor_report;
      EXPECT_TRUE(alone[i].monitors_ok) << what;
      if (d.kind == Kind::kRips) {
        EXPECT_EQ(own.costs_built, d.workload->trace.size()) << what;
        built[{d.workload, d.config.local}] += shared.costs_built;
      } else {
        EXPECT_EQ(shared.costs_built, 0u) << what;
      }
    }
    // One table per key: eight rows each for a and b under each local
    // policy, and c's single row with its engine's own table.
    ASSERT_EQ(built.size(), 5u);
    for (const auto& [key, tasks] : built) {
      EXPECT_EQ(tasks, key.first->trace.size())
          << "jobs=" << jobs << " " << key.first->name << ": a key's "
          << "drain costs were computed more than once";
    }
  }
}

// ------------------------------------------------------ build_workloads

TEST(RunSweep, TimeSeriesAreIsolatedPerRunForAnyJobCount) {
  // Telemetry isolation contract: each run's sampler sees only its own
  // run — same machinery as PerRunTracesAreIdenticalForAnyJobCount, but
  // for the live-telemetry bus, which is a per-run stack object inside
  // run_one (a concurrent run cannot even name it).
  const apps::Workload a = small_workload(6);
  const apps::Workload b = small_workload(7);
  std::vector<RunDescriptor> descriptors;
  for (const apps::Workload* w : {&a, &b}) {
    for (const Kind kind : {Kind::kRips, Kind::kRid, Kind::kGradient}) {
      RunDescriptor d;
      d.workload = w;
      d.nodes = 16;
      d.kind = kind;
      d.collect_timeseries = true;
      descriptors.push_back(d);
    }
  }
  const auto serial = run_sweep(descriptors, 1);
  const auto wide = run_sweep(descriptors, 8);
  ASSERT_EQ(serial.size(), descriptors.size());
  for (size_t i = 0; i < descriptors.size(); ++i) {
    ASSERT_TRUE(serial[i].ok && wide[i].ok) << i;
    ASSERT_TRUE(serial[i].timeseries != nullptr);
    ASSERT_TRUE(wide[i].timeseries != nullptr);
    const obs::TimeSeriesSampler& s = *wide[i].timeseries;
    // The label and counts belong to THIS run's descriptor — no leakage
    // from the 7 sibling runs in flight.
    const RunDescriptor& d = descriptors[i];
    EXPECT_EQ(s.label(),
              d.workload->name + "/" + kind_name(d.kind) + "/n16");
    EXPECT_EQ(s.num_tasks(), d.workload->trace.size());
    EXPECT_EQ(s.num_nodes(), 16);
    EXPECT_TRUE(s.run_complete());
    EXPECT_EQ(s.makespan_ns(), wide[i].run.metrics.makespan_ns);
    EXPECT_GT(s.samples().size(), 0u);
    // And the recorded stream is byte-identical to the serial run's.
    EXPECT_EQ(serial[i].timeseries->to_json(), s.to_json()) << i;
  }
}

TEST(RunSweep, SamplingNeverChangesTheResults) {
  // Attaching samplers must leave every run's output bytes untouched:
  // the registry JSON of a sampled sweep equals the unsampled one.
  const apps::Workload a = small_workload(8);
  const apps::Workload b = small_workload(9);
  auto descriptors = mixed_descriptors(a, b);
  const auto bare = run_sweep(descriptors, 4);
  for (RunDescriptor& d : descriptors) d.collect_timeseries = true;
  const auto sampled = run_sweep(descriptors, 4);
  ASSERT_EQ(bare.size(), sampled.size());
  for (size_t i = 0; i < bare.size(); ++i) {
    ASSERT_TRUE(bare[i].ok && sampled[i].ok) << i;
    EXPECT_EQ(bare[i].run.metrics.makespan_ns,
              sampled[i].run.metrics.makespan_ns) << i;
    EXPECT_EQ(bare[i].run.registry.to_json(),
              sampled[i].run.registry.to_json()) << i;
  }
}

TEST(BuildWorkloads, ParallelBuildMatchesSerialBuild) {
  std::vector<apps::WorkloadSpec> specs;
  for (u64 seed : {10, 11, 12, 13}) {
    specs.push_back({"Synthetic", "spec-" + std::to_string(seed),
                     [seed] { return small_workload(seed); }});
  }
  const auto serial = build_workloads(specs, 1);
  const auto wide = build_workloads(specs, 4);
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(wide.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(serial[i].name, wide[i].name);
    ASSERT_EQ(serial[i].trace.size(), wide[i].trace.size());
  }
}

}  // namespace
}  // namespace rips::sweep
