// Fault-tolerance tests: deterministic fault plans, faulty collectives,
// LiveView topology remaps, and the RIPS engine's crash-recovery path.
// The load-bearing invariants: every task executes at least once (extra
// executions are counted, not silently absorbed), the same fault seed
// reproduces bit-identical metrics, and a plan whose events never fire
// leaves the run bit-identical to a fault-free one.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "apps/paper_workloads.hpp"
#include "apps/synthetic.hpp"
#include "coll/collectives.hpp"
#include "obs/obs.hpp"
#include "rips/rips_engine.hpp"
#include "sched/scheduler.hpp"
#include "sim/fault.hpp"
#include "topo/live_view.hpp"
#include "topo/topology.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

namespace rips {
namespace {

using core::GlobalPolicy;
using core::LocalPolicy;
using core::RipsConfig;
using core::RipsEngine;

// --- FaultPlan / FaultInjector ------------------------------------------

TEST(FaultPlan, GenerateIsDeterministic) {
  sim::FaultSpec spec;
  spec.horizon_ns = 1'000'000'000;
  spec.crash_mtbf_ns = 100'000'000;
  spec.drop_prob = 0.1;
  const auto a = sim::FaultPlan::generate(42, 16, spec);
  const auto b = sim::FaultPlan::generate(42, 16, spec);
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  for (size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].node, b.crashes[i].node);
    EXPECT_EQ(a.crashes[i].time_ns, b.crashes[i].time_ns);
  }
  const auto c = sim::FaultPlan::generate(43, 16, spec);
  // A different seed produces a different schedule (overwhelmingly).
  bool same = a.crashes.size() == c.crashes.size();
  if (same) {
    for (size_t i = 0; i < a.crashes.size(); ++i) {
      same = same && a.crashes[i].time_ns == c.crashes[i].time_ns;
    }
  }
  EXPECT_FALSE(same && !a.crashes.empty());
}

TEST(FaultPlan, NeverKillsTheWholeMachine) {
  sim::FaultSpec spec;
  spec.horizon_ns = 1'000'000'000;
  spec.crash_mtbf_ns = 1'000'000;  // absurdly failure-prone
  for (u64 seed = 0; seed < 20; ++seed) {
    const auto plan = sim::FaultPlan::generate(seed, 8, spec);
    EXPECT_LE(plan.crashes.size(), 7u);
    // No node crashes twice.
    std::vector<NodeId> victims;
    for (const auto& c : plan.crashes) victims.push_back(c.node);
    std::sort(victims.begin(), victims.end());
    EXPECT_EQ(std::adjacent_find(victims.begin(), victims.end()),
              victims.end());
  }
}

TEST(FaultPlan, CrashesSortedAndInsideHorizon) {
  sim::FaultSpec spec;
  spec.horizon_ns = 500'000'000;
  spec.crash_mtbf_ns = 50'000'000;
  const auto plan = sim::FaultPlan::generate(7, 32, spec);
  for (size_t i = 0; i < plan.crashes.size(); ++i) {
    EXPECT_GE(plan.crashes[i].time_ns, 0);
    EXPECT_LT(plan.crashes[i].time_ns, spec.horizon_ns);
    if (i > 0) {
      EXPECT_LE(plan.crashes[i - 1].time_ns, plan.crashes[i].time_ns);
    }
  }
}

TEST(FaultInjector, DropDecisionsAreDeterministicAndCalibrated) {
  sim::FaultPlan plan;
  plan.seed = 99;
  plan.drop_prob = 0.25;
  sim::FaultInjector inj(plan, 16);
  i64 drops = 0;
  const i64 trials = 20000;
  for (i64 i = 0; i < trials; ++i) {
    const bool d = inj.drop_message(static_cast<u64>(i), 1, 2, 0);
    EXPECT_EQ(d, inj.drop_message(static_cast<u64>(i), 1, 2, 0));
    if (d) ++drops;
  }
  const double rate = static_cast<double>(drops) / trials;
  EXPECT_NEAR(rate, 0.25, 0.02);
  // Retries are fresh draws, not replays of the first attempt.
  bool differs = false;
  for (u64 op = 0; op < 64 && !differs; ++op) {
    differs = inj.drop_message(op, 3, 4, 0) != inj.drop_message(op, 3, 4, 1);
  }
  EXPECT_TRUE(differs);
}

// --- faulty collectives --------------------------------------------------

TEST(FaultyCollectives, NoFaultsMatchesFaultFreeCost) {
  topo::Mesh mesh(4, 4);
  coll::Collectives coll(mesh);
  const coll::MessageFault none = [](NodeId, NodeId, i64) { return false; };
  coll::Ledger ledger;
  coll::FaultStats stats;
  EXPECT_EQ(coll.ready_signal_steps_faulty(none, 3, ledger, stats),
            coll.ready_signal_steps());
  EXPECT_EQ(coll.or_barrier_steps_faulty(5, none, 3, ledger, stats),
            coll.or_barrier_steps(5));
  EXPECT_EQ(stats.dropped, 0);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.timeouts, 0);
  EXPECT_TRUE(stats.suspected.empty());
}

TEST(FaultyCollectives, DeadLeafIsSuspectedNotFatal) {
  topo::Mesh mesh(4, 4);
  coll::Collectives coll(mesh);
  const NodeId dead = 15;  // a mesh corner: a leaf of the BFS tree of 0
  const coll::MessageFault fault = [dead](NodeId from, NodeId to, i64) {
    return from == dead || to == dead;
  };
  coll::Ledger ledger;
  coll::FaultStats stats;
  const i32 steps = coll.ready_signal_steps_faulty(fault, 2, ledger, stats);
  EXPECT_GT(steps, coll.ready_signal_steps());  // retries cost steps
  EXPECT_GT(stats.timeouts, 0);
  EXPECT_TRUE(std::find(stats.suspected.begin(), stats.suspected.end(),
                        dead) != stats.suspected.end());
}

// --- LiveView ------------------------------------------------------------

TEST(LiveView, SurvivorsStayConnectedThroughDeadRelays) {
  topo::Mesh mesh(4, 4);  // kill the whole middle column pair
  std::vector<NodeId> live;
  for (NodeId p = 0; p < 16; ++p) {
    const i32 col = p % 4;
    if (col != 1 && col != 2) live.push_back(p);
  }
  topo::LiveView view(mesh, live);
  EXPECT_EQ(view.size(), 8);
  // Opposite sides of the dead band reach each other (relay routing).
  const i32 left = view.rank_of(0);
  const i32 right = view.rank_of(3);
  ASSERT_GE(left, 0);
  ASSERT_GE(right, 0);
  EXPECT_GE(view.distance(left, right), 1);
  EXPECT_LE(view.distance(left, right), view.diameter());
  // Rank mapping round-trips; dead nodes report kInvalidNode.
  for (i32 r = 0; r < view.size(); ++r) {
    EXPECT_EQ(view.rank_of(view.physical(r)), r);
  }
  EXPECT_EQ(view.rank_of(1), kInvalidNode);
}

TEST(LiveView, SingleSurvivorIsValid) {
  topo::Mesh mesh(2, 2);
  topo::LiveView view(mesh, {3});
  EXPECT_EQ(view.size(), 1);
  EXPECT_EQ(view.diameter(), 0);
  EXPECT_EQ(view.physical(0), 3);
}

/// All-pairs survivor distances computed the slow, obvious way: relay
/// adjacency from a fresh walk per survivor (through dead nodes only),
/// then one BFS per survivor over it. Indexed by rank (sorted survivor
/// order). Its largest entry is the diameter LiveView must find.
std::vector<std::vector<i32>> naive_live_distances(
    const topo::Topology& base, const std::vector<NodeId>& live) {
  const size_t n = live.size();
  std::vector<i32> rank_of(static_cast<size_t>(base.size()), -1);
  for (size_t r = 0; r < n; ++r) {
    rank_of[static_cast<size_t>(live[r])] = static_cast<i32>(r);
  }
  std::vector<std::vector<size_t>> adj(n);
  for (size_t r = 0; r < n; ++r) {
    std::vector<char> seen(static_cast<size_t>(base.size()), 0);
    std::vector<NodeId> frontier{live[r]};
    seen[static_cast<size_t>(live[r])] = 1;
    while (!frontier.empty()) {
      const NodeId u = frontier.back();
      frontier.pop_back();
      for (NodeId v : base.neighbors(u)) {
        if (seen[static_cast<size_t>(v)]) continue;
        seen[static_cast<size_t>(v)] = 1;
        const i32 vr = rank_of[static_cast<size_t>(v)];
        if (vr < 0) {
          frontier.push_back(v);
        } else if (static_cast<size_t>(vr) != r) {
          adj[r].push_back(static_cast<size_t>(vr));
        }
      }
    }
  }
  std::vector<std::vector<i32>> d(n, std::vector<i32>(n, -1));
  for (size_t r = 0; r < n; ++r) {
    std::vector<size_t> queue{r};
    d[r][r] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
      const size_t u = queue[head];
      for (const size_t v : adj[u]) {
        if (d[r][v] >= 0) continue;
        d[r][v] = d[r][u] + 1;
        queue.push_back(v);
      }
    }
  }
  return d;
}

TEST(LiveView, DistancesAndDiameterMatchANaiveReference) {
  const topo::Mesh mesh(5, 6);
  const topo::Torus torus(4, 5);
  const topo::Hypercube cube(5);
  const topo::Mesh mesh_8(8, 8);
  const topo::Mesh mesh_3x17(3, 17);
  const topo::Mesh mesh_32x7(32, 7);
  const topo::Mesh mesh_16(16, 16);
  const topo::Mesh mesh_32(32, 32);
  const topo::Torus torus_8(8, 8);
  const topo::Torus torus_16(16, 16);
  const topo::Torus torus_32(32, 32);
  const topo::Topology* bases[] = {&mesh,      &torus,     &cube,
                                   &mesh_8,    &mesh_3x17, &mesh_32x7,
                                   &mesh_16,   &mesh_32,   &torus_8,
                                   &torus_16,  &torus_32};
  Rng rng(20261019);
  for (const topo::Topology* base : bases) {
    const int trials = base->size() > 256 ? 6 : 12;
    for (int trial = 0; trial < trials; ++trial) {
      // Kill between none and most of the machine, at random; half the
      // trials kill at most a tenth (the engine's few-crash case).
      const auto n = static_cast<u64>(base->size());
      const u64 dead = rng.next_below(trial % 2 == 0 ? n : n / 10 + 1);
      std::vector<NodeId> live;
      for (NodeId p = 0; p < base->size(); ++p) live.push_back(p);
      for (u64 k = 0; k < dead; ++k) {
        live.erase(live.begin() +
                   static_cast<std::ptrdiff_t>(rng.next_below(live.size())));
      }
      const topo::LiveView view(*base, live);
      const auto want = naive_live_distances(*base, live);
      i32 diameter = 0;
      // Ask rows last to first, so the lazily built rows are filled in the
      // opposite order to their ranks.
      for (size_t a = live.size(); a-- > 0;) {
        for (size_t b = 0; b < live.size(); ++b) {
          ASSERT_EQ(view.distance(static_cast<NodeId>(a),
                                  static_cast<NodeId>(b)),
                    want[a][b])
              << base->name() << " trial " << trial << " pair " << a << ","
              << b;
          diameter = std::max(diameter, want[a][b]);
        }
      }
      EXPECT_EQ(view.diameter(), diameter) << base->name() << " " << trial;
      // A fresh view answers diameter() before any distance() call.
      EXPECT_EQ(topo::LiveView(*base, live).diameter(), diameter);
    }
  }
}

// --- engine: crash recovery ----------------------------------------------

apps::TaskTrace medium_trace(u64 seed) {
  apps::SyntheticConfig c;
  c.num_roots = 60;
  c.spawn_prob = 0.5;
  c.max_depth = 4;
  c.max_branch = 3;
  c.work_model = 2;
  return apps::build_synthetic_trace(c, seed);
}

TEST(RipsFaults, PlanThatNeverFiresIsBitIdenticalToFaultFree) {
  const auto trace = medium_trace(11);
  auto sched = sched::make_scheduler("mwa", 16);
  sim::CostModel cost;
  cost.ns_per_work = 500.0;
  RipsEngine engine(*sched, cost, RipsConfig{});
  const auto base = engine.run(trace);

  sim::FaultPlan plan;
  plan.seed = 1;
  plan.crashes.push_back({3, base.makespan_ns * 10});  // after the end
  engine.set_fault_plan(&plan);
  auto with_plan = engine.run(trace);
  // A crash-only plan keeps the drain-sum measuring pass — crashes never
  // change the undisturbed drain times the pass computes. Every simulated
  // bit must match, including the recorded pass.
  EXPECT_TRUE(base.used_fast_measure);
  EXPECT_TRUE(with_plan.used_fast_measure);
  EXPECT_TRUE(base == with_plan);

  engine.set_fault_plan(nullptr);
  const auto detached = engine.run(trace);
  EXPECT_TRUE(base == detached);
}

TEST(RipsFaults, CrashOnlyPlanKeepsDrainSumAndMatchesFullPass) {
  const auto trace = medium_trace(11);
  auto sched = sched::make_scheduler("mwa", 16);
  sim::CostModel cost;
  cost.ns_per_work = 500.0;
  RipsEngine engine(*sched, cost, RipsConfig{});
  const auto base = engine.run(trace);

  // A crash that actually fires mid-run: the drain-sum pass must survive
  // it (crash admission reads the measured drains, it never changes them)
  // and stay bit-identical to the reference full pass on the same plan.
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.crashes.push_back({5, base.makespan_ns / 2});
  engine.set_fault_plan(&plan);
  const auto fast = engine.run(trace);
  EXPECT_TRUE(fast.used_fast_measure);
  EXPECT_EQ(fast.crashes, 1u);

  engine.set_full_measure_pass(true);
  auto full = engine.run(trace);
  EXPECT_FALSE(full.used_fast_measure);
  full.used_fast_measure = fast.used_fast_measure;
  EXPECT_TRUE(fast == full);
  engine.set_full_measure_pass(false);
}

TEST(RipsFaults, MessageFaultOnlyPlanKeepsDrainSum) {
  const auto trace = medium_trace(11);
  auto sched = sched::make_scheduler("mwa", 16);
  sim::CostModel cost;
  cost.ns_per_work = 500.0;
  RipsEngine engine(*sched, cost, RipsConfig{});

  sim::FaultPlan plan;
  plan.seed = 8;
  plan.drop_prob = 0.5;  // drops only stretch the detection collectives
  engine.set_fault_plan(&plan);
  const auto m = engine.run(trace);
  EXPECT_TRUE(m.used_fast_measure);
}

TEST(RipsFaults, SingleCrashRecoversAndCountsReexecution) {
  const auto trace = medium_trace(12);
  auto sched = sched::make_scheduler("mwa", 16);
  sim::CostModel cost;
  cost.ns_per_work = 500.0;
  RipsEngine engine(*sched, cost, RipsConfig{});
  const auto base = engine.run(trace);

  sim::FaultPlan plan;
  plan.seed = 2;
  plan.crashes.push_back({5, base.makespan_ns / 2});
  engine.set_fault_plan(&plan);
  obs::TraceSession trace_session(16);
  engine.set_obs(obs::Obs{&trace_session, nullptr});
  const auto m = engine.run(trace);

  EXPECT_EQ(m.crashes, 1u);
  EXPECT_GE(m.recovery_phases, 1u);
  // Conservation under faults: every task committed exactly once.
  EXPECT_EQ(m.num_tasks, trace.size());
  EXPECT_EQ(m.total_busy_ns, m.sequential_ns);
  EXPECT_EQ(engine.live_nodes().size(), 15u);
  EXPECT_TRUE(std::find(engine.live_nodes().begin(),
                        engine.live_nodes().end(), 5) ==
              engine.live_nodes().end());
  // The failure and the recovery line are in the trace.
  bool saw_failure = false;
  bool saw_recovery = false;
  for (const obs::TraceEvent& ev : trace_session.sorted_events()) {
    const std::string name = ev.name;
    saw_failure |= name == obs::record::kCrash.name && ev.node == 5;
    saw_recovery |= name == obs::record::kRecovery.name;
  }
  EXPECT_TRUE(saw_failure);
  EXPECT_TRUE(saw_recovery);

  // Same plan => bit-identical metrics.
  engine.set_obs(obs::Obs{});
  const auto m2 = engine.run(trace);
  EXPECT_TRUE(m == m2);
}

TEST(RipsFaults, AllPolicyDetectsCrashWithoutDeadlock) {
  const auto trace = medium_trace(13);
  auto sched = sched::make_scheduler("mwa", 16);
  sim::CostModel cost;
  cost.ns_per_work = 500.0;
  RipsConfig config;
  config.global = GlobalPolicy::kAll;
  config.local = LocalPolicy::kEager;
  RipsEngine engine(*sched, cost, config);
  const auto base = engine.run(trace);

  sim::FaultPlan plan;
  plan.seed = 3;
  plan.crashes.push_back({0, base.makespan_ns / 3});  // kill the tree root
  engine.set_fault_plan(&plan);
  const auto m = engine.run(trace);
  EXPECT_EQ(m.crashes, 1u);
  EXPECT_EQ(m.num_tasks, trace.size());
  EXPECT_EQ(m.total_busy_ns, m.sequential_ns);
  // Detection is not free: the run must be charged for it.
  EXPECT_GT(m.recovery_time_ns, 0);
  EXPECT_GT(m.makespan_ns, 0);
}

TEST(RipsFaults, MessageDropsAreChargedAndDeterministic) {
  const auto trace = medium_trace(15);
  auto sched = sched::make_scheduler("mwa", 16);
  sim::CostModel cost;
  cost.ns_per_work = 500.0;
  RipsEngine engine(*sched, cost, RipsConfig{});

  sim::FaultPlan plan;
  plan.seed = 6;
  plan.drop_prob = 0.3;
  engine.set_fault_plan(&plan);
  const auto m = engine.run(trace);
  EXPECT_EQ(m.num_tasks, trace.size());
  EXPECT_GT(m.dropped_messages, 0u);
  EXPECT_GT(m.message_retries, 0u);
  const auto m2 = engine.run(trace);
  EXPECT_TRUE(m == m2);
}

// Every paper workload (quick variant), 32-node mesh, one seeded fail-stop
// crash mid-run: the run terminates, every task executes, the crash and the
// re-executions are counted, and the same seed reproduces identical
// metrics. This is the ISSUE's acceptance scenario.
TEST(RipsFaults, PaperWorkloadsSurviveMidRunCrash) {
  const auto workloads = apps::build_paper_workloads(/*quick=*/false);
  ASSERT_EQ(workloads.size(), 10u);  // 9 paper rows + the Multi-job row
  for (const auto& w : workloads) {
    auto sched = sched::make_scheduler("mwa", 32);
    RipsEngine engine(*sched, w.cost, RipsConfig{});
    const auto base = engine.run(w.trace);

    sim::FaultPlan plan;
    plan.seed = 21;
    plan.crashes.push_back({7, base.makespan_ns / 2});
    engine.set_fault_plan(&plan);
    const auto m = engine.run(w.trace);
    EXPECT_EQ(m.crashes, 1u) << w.name;
    EXPECT_EQ(m.num_tasks, w.trace.size()) << w.name;
    EXPECT_EQ(m.total_busy_ns, m.sequential_ns) << w.name;
    EXPECT_EQ(engine.live_nodes().size(), 31u) << w.name;
    const auto m2 = engine.run(w.trace);
    EXPECT_TRUE(m == m2) << w.name;
  }
}

// --- property sweep over random fault schedules --------------------------

using FaultParam = std::tuple<i32, i32>;  // policy idx, seed

std::string fault_sweep_name(const ::testing::TestParamInfo<FaultParam>& i) {
  static const char* const kPolicies[] = {"ALLEager", "ALLLazy", "ANYEager",
                                          "ANYLazy"};
  return std::string(kPolicies[std::get<0>(i.param)]) + "_seed" +
         std::to_string(std::get<1>(i.param));
}

class RipsFaultSweep : public ::testing::TestWithParam<FaultParam> {};

TEST_P(RipsFaultSweep, ConservationAndDeterminismUnderRandomFaults) {
  const auto [policy_idx, seed] = GetParam();
  RipsConfig config;
  config.local =
      policy_idx % 2 == 0 ? LocalPolicy::kEager : LocalPolicy::kLazy;
  config.global =
      policy_idx / 2 == 0 ? GlobalPolicy::kAll : GlobalPolicy::kAny;

  const auto trace = medium_trace(100 + static_cast<u64>(seed));
  auto sched = sched::make_scheduler("mwa", 16);
  sim::CostModel cost;
  cost.ns_per_work = 500.0;
  RipsEngine engine(*sched, cost, config);
  const auto base = engine.run(trace);

  // Random but seeded crashes plus message loss: everything the injector
  // supports.
  sim::FaultSpec spec;
  spec.horizon_ns = base.makespan_ns * 2;
  spec.crash_mtbf_ns = static_cast<double>(base.makespan_ns) / 2.0;
  spec.drop_prob = 0.05;
  const auto plan =
      sim::FaultPlan::generate(static_cast<u64>(seed) * 7919 + 1, 16, spec);
  engine.set_fault_plan(&plan);

  const auto m = engine.run(trace);
  // Terminated (we got here), conserved, and every extra execution counted:
  // doomed executions commit nothing, so busy time is exactly the work.
  EXPECT_EQ(m.num_tasks, trace.size());
  EXPECT_EQ(m.total_busy_ns, m.sequential_ns);
  EXPECT_EQ(m.crashes + engine.live_nodes().size(), 16u);
  if (m.crashes > 0) {
    EXPECT_GE(m.recovery_phases, 1u);
  }
  // Bit-identical rerun.
  const auto m2 = engine.run(trace);
  EXPECT_TRUE(m == m2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RipsFaultSweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 8)),
                         fault_sweep_name);

}  // namespace
}  // namespace rips
