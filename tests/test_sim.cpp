// Simulator-layer tests: cost model arithmetic, event-queue determinism,
// derived run metrics and the rips-bench-v1 writer's rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/task_queue.hpp"

namespace rips::sim {
namespace {

// ---------------------------------------------------------- CostModel

TEST(CostModel, WorkTimeScalesLinearly) {
  CostModel cost;
  cost.ns_per_work = 100.0;
  EXPECT_EQ(cost.work_time(0), 1);  // never zero: a task takes some time
  EXPECT_EQ(cost.work_time(1), 100);
  EXPECT_EQ(cost.work_time(1000), 100'000);
}

TEST(CostModel, MessageCostsIncludePerTaskPacking) {
  CostModel cost;
  EXPECT_EQ(cost.send_time(0), cost.send_overhead_ns);
  EXPECT_EQ(cost.send_time(5),
            cost.send_overhead_ns + 5 * cost.per_task_pack_ns);
  EXPECT_EQ(cost.recv_time(3),
            cost.recv_overhead_ns + 3 * cost.per_task_pack_ns);
  EXPECT_EQ(cost.network_time(0), 0);
  EXPECT_EQ(cost.network_time(4), 4 * cost.per_hop_ns);
}

// --------------------------------------------------------- EventQueue

TEST(EventQueue, OrdersByTimeAcrossLanes) {
  EventQueue<int> q(3);
  q.push(0, 30, 3);
  q.push(1, 10, 1);
  q.push(2, 20, 2);
  EXPECT_EQ(q.pop().payload, 1);
  EXPECT_EQ(q.pop().payload, 2);
  EXPECT_EQ(q.pop().payload, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, BreaksTiesByPushOrder) {
  // Equal times within one lane and across lanes: push order decides.
  EventQueue<int> q(4);
  for (int i = 0; i < 100; ++i) q.push(static_cast<size_t>(i * 7 % 4), 42, i);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(q.pop().payload, i);
  }
}

TEST(EventQueue, NextTimePeeks) {
  EventQueue<int> q(2);
  q.push(0, 7, 0);
  q.push(1, 3, 1);
  EXPECT_EQ(q.next_time(), 3);
  EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueue, PopMovesMoveOnlyPayloads) {
  // pop() and a lane's ring growth must move payloads, not copy them —
  // unique_ptr would not compile against a copying implementation.
  EventQueue<std::unique_ptr<int>> q(2);
  for (int i = 0; i < 20; ++i) q.push(0, 20 + i, std::make_unique<int>(2 + i));
  q.push(1, 10, std::make_unique<int>(1));
  EXPECT_EQ(*q.pop().payload, 1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(*q.pop().payload, 2 + i);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, LaneMergeMatchesStableSortUnderChurn) {
  // Deterministic pseudo-random pushes interleaved with pops over 12 lanes,
  // each push at max(its lane's tail, the last popped time) plus a small
  // random delay — the engine's pattern, so nothing is scheduled in the
  // past. The whole pop sequence must then be the pushes stably sorted by
  // time (ties in push order), however the lanes wrap and grow.
  constexpr size_t kLanes = 12;
  EventQueue<int> q(kLanes);
  std::vector<SimTime> tail(kLanes, 0);
  std::vector<std::pair<SimTime, int>> pushed;
  std::vector<std::pair<SimTime, int>> popped;
  SimTime now = 0;
  u64 state = 12345;
  auto next = [&state](u64 bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  for (int id = 0; id < 4000; ++id) {
    const size_t lane = next(kLanes);
    tail[lane] = std::max(tail[lane], now) + static_cast<SimTime>(next(8));
    q.push(lane, tail[lane], id);
    pushed.push_back({tail[lane], id});
    // Pop less often than we push early on, more often later, so lanes
    // both grow past their first ring and drain to empty.
    const u64 pops = id < 2000 ? next(2) : next(3);
    for (u64 k = 0; k < pops && !q.empty(); ++k) {
      const auto e = q.pop();
      now = e.time;
      popped.push_back({e.time, e.payload});
    }
  }
  while (!q.empty()) {
    const auto e = q.pop();
    popped.push_back({e.time, e.payload});
  }
  std::stable_sort(pushed.begin(), pushed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(popped, pushed);
}

TEST(EventQueue, ClearResetsTieBreakSequenceAndLaneFloors) {
  EventQueue<int> q(1);
  q.push(0, 5, 1);
  q.push(0, 50, 9);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push(0, 5, 2);  // below the cleared tail (50): allowed after clear()
  q.push(0, 5, 3);
  EXPECT_EQ(q.pop().payload, 2);  // seq restarted: insertion order holds
  EXPECT_EQ(q.pop().payload, 3);
}

TEST(EventQueueDeathTest, PushEarlierThanItsLaneTailAborts) {
  EventQueue<int> q(2);
  q.push(0, 10, 0);
  q.push(1, 5, 1);  // another lane may run behind
  (void)q.pop();
  (void)q.pop();  // lane 0 is empty again, but keeps its floor of 10
  EXPECT_DEATH(q.push(0, 9, 2), "earlier than its lane's tail");
}

// ----------------------------------------------------------- TaskQueue

TEST(TaskQueue, FifoAndLifoEnds) {
  TaskQueue q;
  for (TaskId t = 0; t < 10; ++t) q.push_back(t);
  EXPECT_EQ(q.size(), 10u);
  EXPECT_EQ(q.front(), 0u);
  EXPECT_EQ(q.back(), 9u);
  EXPECT_EQ(q.pop_front(), 0u);
  EXPECT_EQ(q.pop_back(), 9u);
  EXPECT_EQ(q.size(), 8u);
}

TEST(TaskQueue, CompactionPreservesFifoOrder) {
  // Interleave pushes and pops far past the compaction threshold; the
  // observable sequence must be exactly a FIFO's.
  TaskQueue q;
  TaskId next_in = 0;
  TaskId next_out = 0;
  for (int round = 0; round < 2000; ++round) {
    q.push_back(next_in++);
    q.push_back(next_in++);
    ASSERT_EQ(q.pop_front(), next_out++);
  }
  while (!q.empty()) ASSERT_EQ(q.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

// ----------------------------------------------------------- metrics

TEST(RunMetrics, DerivedQuantities) {
  RunMetrics m;
  m.num_nodes = 4;
  m.makespan_ns = 2'000'000'000;   // 2 s
  m.sequential_ns = 6'000'000'000; // 6 s
  m.total_overhead_ns = 400'000'000;
  m.total_idle_ns = 800'000'000;
  EXPECT_DOUBLE_EQ(m.exec_s(), 2.0);
  EXPECT_DOUBLE_EQ(m.overhead_s(), 0.1);
  EXPECT_DOUBLE_EQ(m.idle_s(), 0.2);
  EXPECT_DOUBLE_EQ(m.efficiency(), 0.75);
  EXPECT_DOUBLE_EQ(m.speedup(), 3.0);
}

TEST(RunMetrics, ZeroSafe) {
  RunMetrics m;
  EXPECT_DOUBLE_EQ(m.efficiency(), 0.0);
  EXPECT_DOUBLE_EQ(m.speedup(), 0.0);
  EXPECT_DOUBLE_EQ(m.overhead_s(), 0.0);
  EXPECT_FALSE(m.summary().empty());
}

// ----------------------------------------------------- rips-bench-v1

TEST(JobLatency, ClampsNonPositiveAndIndexesQTimesNMinusOne) {
  RunMetrics m;
  for (const SimTime end : {50, 10, 40, 30, 5}) {
    JobMetrics job;
    job.completion_ns = end;
    m.jobs.push_back(job);
  }
  // Job 4 finished before its submit time; the sixth submit has no job.
  const JobLatency lat = job_latency(m, {0, 0, 0, 0, 9, 7});
  EXPECT_EQ(lat.samples, 5u);    // sorted {0, 10, 30, 40, 50}
  EXPECT_EQ(lat.p50_ns, 30);     // index 0.50 * 4 = 2
  EXPECT_EQ(lat.p95_ns, 40);     // index 0.95 * 4 = 3.8 -> 3
  EXPECT_EQ(lat.p99_ns, 40);
  EXPECT_EQ(lat.mean_ns, 26);    // 130 / 5
  EXPECT_EQ(job_latency(m, {}).samples, 0u);
}

TEST(BenchDoc, WritesJobMembersOnlyForTwoOrMoreJobs) {
  BenchRow row;
  row.metrics.num_nodes = 4;
  row.metrics.makespan_ns = 100;
  row.registry_json = "{}";
  row.metrics.jobs.resize(1);
  const std::string one = bench_doc_json("core", true, 4, {row});
  EXPECT_EQ(one.find("\"fairness\""), std::string::npos) << one;
  EXPECT_EQ(one.find("\"jobs\""), std::string::npos) << one;
  EXPECT_EQ(one.find("latency_p50_ns"), std::string::npos) << one;

  row.metrics.jobs.resize(2);
  row.job_submit_ns = {0, 0};
  row.jobs_done = 2;
  const std::string two = bench_doc_json("serve", false, 4, {row});
  const size_t fairness = two.find("\"fairness\":");
  const size_t latency = two.find("\"latency_p50_ns\":");
  const size_t done = two.find("\"jobs_done\":2,");
  const size_t monitors = two.find("\"monitors_ok\":true,\"metrics\":{}}");
  ASSERT_NE(fairness, std::string::npos) << two;
  EXPECT_LT(fairness, latency);
  EXPECT_LT(latency, done);
  EXPECT_LT(done, monitors);
  EXPECT_NE(monitors, std::string::npos) << two;
}

}  // namespace
}  // namespace rips::sim
