// Simulator-layer tests: cost model arithmetic, event-queue determinism
// and derived run metrics.
#include <gtest/gtest.h>

#include <memory>
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

TEST(EventQueue, OrdersByTime) {
  EventQueue<int> q;
  q.push(30, 3);
  q.push(10, 1);
  q.push(20, 2);
  EXPECT_EQ(q.pop().payload, 1);
  EXPECT_EQ(q.pop().payload, 2);
  EXPECT_EQ(q.pop().payload, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, BreaksTiesByInsertionOrder) {
  EventQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push(42, i);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(q.pop().payload, i);
  }
}

TEST(EventQueue, NextTimePeeks) {
  EventQueue<int> q;
  q.push(7, 0);
  q.push(3, 1);
  EXPECT_EQ(q.next_time(), 3);
  EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueue, PopMovesMoveOnlyPayloads) {
  // pop() must move the payload out, not copy it — unique_ptr would not
  // compile against a copying implementation.
  EventQueue<std::unique_ptr<int>> q;
  q.push(20, std::make_unique<int>(2));
  q.push(10, std::make_unique<int>(1));
  EXPECT_EQ(*q.pop().payload, 1);
  EXPECT_EQ(*q.pop().payload, 2);
}

TEST(EventQueue, QuaternaryHeapKeepsTotalOrderUnderChurn) {
  // Deterministic pseudo-random interleaving of pushes and pops; the
  // (time, seq) order must match a reference sort whatever the heap arity.
  EventQueue<int> q;
  q.reserve(256);
  std::vector<std::pair<SimTime, int>> reference;
  u64 state = 12345;
  int id = 0;
  std::vector<int> popped;
  for (int round = 0; round < 500; ++round) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const SimTime t = static_cast<SimTime>((state >> 33) % 64);
    q.push(t, id);
    reference.push_back({t, id});
    ++id;
    if (round % 3 == 2) popped.push_back(q.pop().payload);
  }
  while (!q.empty()) popped.push_back(q.pop().payload);
  // Overall pop sequence need not be globally sorted (pops interleave
  // with pushes), but draining the rest must come out in (time, seq)
  // order among the remaining events; easiest full check: re-run all
  // events through a fresh queue and compare with a stable sort.
  EventQueue<int> q2;
  for (const auto& [t, v] : reference) q2.push(t, v);
  std::stable_sort(reference.begin(), reference.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [t, v] : reference) {
    const auto e = q2.pop();
    EXPECT_EQ(e.time, t);
    EXPECT_EQ(e.payload, v);
  }
  EXPECT_EQ(popped.size(), reference.size());
}

TEST(EventQueue, ClearResetsTieBreakSequence) {
  EventQueue<int> q;
  q.push(5, 1);
  q.clear();
  q.push(5, 2);
  q.push(5, 3);
  EXPECT_EQ(q.pop().payload, 2);  // seq restarted: insertion order holds
  EXPECT_EQ(q.pop().payload, 3);
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

TEST(TaskQueue, IterationSeesExactlyTheQueuedTasks) {
  TaskQueue q;
  for (TaskId t = 0; t < 50; ++t) q.push_back(t);
  for (int i = 0; i < 20; ++i) q.pop_front();
  std::vector<TaskId> seen(q.begin(), q.end());
  ASSERT_EQ(seen.size(), 30u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 20 + i);
}

TEST(TaskQueue, AssignClonesContentReusingStorage) {
  TaskQueue source;
  for (TaskId t = 100; t < 110; ++t) source.push_back(t);
  source.pop_front();  // head offset must not leak into the clone

  TaskQueue scratch;
  for (int reuse = 0; reuse < 3; ++reuse) {
    scratch.assign(source);
    ASSERT_EQ(scratch.size(), source.size());
    EXPECT_EQ(scratch.pop_front(), 101u);
    EXPECT_EQ(scratch.pop_back(), 109u);
  }
  EXPECT_EQ(source.size(), 9u);  // source untouched
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

}  // namespace
}  // namespace rips::sim
