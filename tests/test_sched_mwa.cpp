// Mesh Walking Algorithm property tests — the paper's Theorems 1-2 and
// Lemma 2 enforced over thousands of randomized load distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <string>
#include <utility>

#include "flow/mincost_flow.hpp"
#include "sched/mwa.hpp"
#include "sched/scheduler.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace rips::sched {
namespace {

std::vector<i64> random_load(i32 n, i64 mean, Rng& rng) {
  std::vector<i64> load(static_cast<size_t>(n));
  for (auto& w : load) w = static_cast<i64>(rng.next_below(2 * mean + 1));
  return load;
}

i64 sum_of(const std::vector<i64>& v) {
  return std::accumulate(v.begin(), v.end(), i64{0});
}

struct MeshCase {
  i32 rows;
  i32 cols;
  i64 mean;
};

class MwaProperties : public ::testing::TestWithParam<MeshCase> {};

TEST_P(MwaProperties, Theorem1_BalanceWithinOne) {
  const auto [rows, cols, mean] = GetParam();
  Mwa mwa(topo::Mesh{rows, cols});
  Rng rng(1000 + static_cast<u64>(rows * 131 + cols * 7 + mean));
  for (int trial = 0; trial < 50; ++trial) {
    const auto load = random_load(rows * cols, mean, rng);
    const auto result = mwa.schedule(load);
    // Conservation.
    EXPECT_EQ(sum_of(result.new_load), sum_of(load));
    // Theorem 1: max difference of one, and exactly the canonical quota.
    const auto quota = quota_for(sum_of(load), rows * cols);
    EXPECT_EQ(result.new_load, quota);
  }
}

TEST_P(MwaProperties, Theorem2_LocalityIsOptimal) {
  const auto [rows, cols, mean] = GetParam();
  Mwa mwa(topo::Mesh{rows, cols});
  Rng rng(2000 + static_cast<u64>(rows * 131 + cols * 7 + mean));
  for (int trial = 0; trial < 50; ++trial) {
    auto load = random_load(rows * cols, mean, rng);
    // Make the total divisible by N (the theorem's exact regime).
    const i64 n = rows * cols;
    load[0] += (n - sum_of(load) % n) % n;
    const auto quota = quota_for(sum_of(load), rows * cols);
    const auto result = mwa.schedule(load);
    const auto replay = replay_transfers(load, result.transfers);
    EXPECT_EQ(replay.final_load, quota);
    EXPECT_EQ(replay.nonlocal_tasks, min_nonlocal_tasks(load, quota))
        << rows << "x" << cols << " trial " << trial;
  }
}

TEST_P(MwaProperties, StepBound_3TimesN1PlusN2) {
  const auto [rows, cols, mean] = GetParam();
  Mwa mwa(topo::Mesh{rows, cols});
  Rng rng(3000 + static_cast<u64>(rows * 131 + cols * 7 + mean));
  for (int trial = 0; trial < 50; ++trial) {
    const auto result = mwa.schedule(random_load(rows * cols, mean, rng));
    EXPECT_LE(result.comm_steps, 3 * (rows + cols));
    EXPECT_EQ(result.comm_steps, result.info_steps + result.transfer_steps);
  }
}

TEST_P(MwaProperties, TransfersAreLinkLocalAndBacked) {
  const auto [rows, cols, mean] = GetParam();
  topo::Mesh mesh{rows, cols};
  Mwa mwa(mesh);
  Rng rng(4000 + static_cast<u64>(rows * 131 + cols * 7 + mean));
  for (int trial = 0; trial < 20; ++trial) {
    const auto load = random_load(rows * cols, mean, rng);
    const auto result = mwa.schedule(load);
    i64 hops = 0;
    for (const Transfer& tr : result.transfers) {
      EXPECT_EQ(mesh.distance(tr.from, tr.to), 1);
      EXPECT_GT(tr.count, 0);
      hops += tr.count;
    }
    EXPECT_EQ(hops, result.task_hops);
    // replay_transfers CHECKs that every transfer is backed by holdings.
    (void)replay_transfers(load, result.transfers);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndMeans, MwaProperties,
    ::testing::Values(MeshCase{1, 1, 5}, MeshCase{1, 8, 5}, MeshCase{8, 1, 5},
                      MeshCase{2, 2, 3}, MeshCase{4, 2, 2}, MeshCase{4, 4, 10},
                      MeshCase{8, 4, 2}, MeshCase{8, 4, 100},
                      MeshCase{8, 8, 20}, MeshCase{16, 8, 5},
                      MeshCase{3, 5, 7}, MeshCase{5, 3, 50},
                      MeshCase{16, 16, 10}, MeshCase{2, 8, 1},
                      MeshCase{7, 7, 13}, MeshCase{1, 16, 4}));

TEST(Mwa, AllZeroLoadIsNoop) {
  Mwa mwa(topo::Mesh{4, 4});
  const auto result = mwa.schedule(std::vector<i64>(16, 0));
  EXPECT_TRUE(result.transfers.empty());
  EXPECT_EQ(result.task_hops, 0);
  EXPECT_EQ(sum_of(result.new_load), 0);
}

TEST(Mwa, AlreadyBalancedMovesNothing) {
  Mwa mwa(topo::Mesh{4, 8});
  const auto result = mwa.schedule(std::vector<i64>(32, 7));
  EXPECT_TRUE(result.transfers.empty());
  EXPECT_EQ(result.task_hops, 0);
}

TEST(Mwa, SingleHotNodeSpreadsEverywhere) {
  Mwa mwa(topo::Mesh{4, 4});
  std::vector<i64> load(16, 0);
  load[5] = 160;
  const auto result = mwa.schedule(load);
  for (i64 w : result.new_load) EXPECT_EQ(w, 10);
  // Exactly 150 tasks leave their origin.
  const auto replay = replay_transfers(load, result.transfers);
  EXPECT_EQ(replay.nonlocal_tasks, 150);
}

TEST(Mwa, RemainderGoesToLowestIds) {
  Mwa mwa(topo::Mesh{2, 2});
  const auto result = mwa.schedule({7, 0, 0, 0});
  EXPECT_EQ(result.new_load, (std::vector<i64>{2, 2, 2, 1}));
}

TEST(Mwa, Lemma2_OptimalCostUpToFourProcessors) {
  // On <= 4 processors MWA minimizes the link cost sum e_k (Lemma 2):
  // exhaustively compare against the min-cost-flow optimum.
  for (const MeshCase shape : {MeshCase{2, 2, 0}, MeshCase{1, 4, 0},
                               MeshCase{4, 1, 0}, MeshCase{2, 1, 0}}) {
    topo::Mesh mesh{shape.rows, shape.cols};
    Mwa mwa(mesh);
    Rng rng(77);
    for (int trial = 0; trial < 200; ++trial) {
      auto load = random_load(shape.rows * shape.cols, 6, rng);
      const auto result = mwa.schedule(load);
      const auto opt =
          flow::optimal_balance_cost(mesh, load, quota_for(sum_of(load),
                                                           mesh.size()));
      EXPECT_EQ(result.task_hops, opt.total_cost)
          << mesh.name() << " trial " << trial;
    }
  }
}

TEST(Mwa, Lemma2_ExhaustiveOn2x2) {
  // Every load vector in {0..5}^4 on the 2x2 mesh: MWA's link cost must
  // equal the min-cost-flow optimum (Lemma 2, exhaustively).
  topo::Mesh mesh{2, 2};
  Mwa mwa(mesh);
  for (i64 a = 0; a <= 5; ++a) {
    for (i64 b = 0; b <= 5; ++b) {
      for (i64 c = 0; c <= 5; ++c) {
        for (i64 d = 0; d <= 5; ++d) {
          const std::vector<i64> load{a, b, c, d};
          const auto result = mwa.schedule(load);
          const auto opt = flow::optimal_balance_cost(
              mesh, load, quota_for(a + b + c + d, 4));
          ASSERT_EQ(result.task_hops, opt.total_cost)
              << a << "," << b << "," << c << "," << d;
        }
      }
    }
  }
}

TEST(Mwa, NeverBeatsTheFlowOptimum) {
  // Sanity direction of Figure 4: C_MWA >= C_OPT always.
  topo::Mesh mesh{4, 4};
  Mwa mwa(mesh);
  Rng rng(123);
  for (int trial = 0; trial < 100; ++trial) {
    auto load = random_load(16, 10, rng);
    const auto result = mwa.schedule(load);
    const auto opt = flow::optimal_balance_cost(
        mesh, load, quota_for(sum_of(load), 16));
    EXPECT_GE(result.task_hops, opt.total_cost);
  }
}

TEST(Mwa, DeterministicAcrossCalls) {
  Mwa mwa(topo::Mesh{8, 4});
  Rng rng(9);
  const auto load = random_load(32, 50, rng);
  const auto a = mwa.schedule(load);
  const auto b = mwa.schedule(load);
  EXPECT_EQ(a.new_load, b.new_load);
  EXPECT_EQ(a.task_hops, b.task_hops);
  EXPECT_EQ(a.comm_steps, b.comm_steps);
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (size_t i = 0; i < a.transfers.size(); ++i) {
    EXPECT_EQ(a.transfers[i].from, b.transfers[i].from);
    EXPECT_EQ(a.transfers[i].to, b.transfers[i].to);
    EXPECT_EQ(a.transfers[i].count, b.transfers[i].count);
  }
}

// ---------------------------------------------------------------------------
// Exact-plan oracle. `dense_reference_schedule` is Figure 3 written plainly:
// fresh vectors, and a step 5 whose every round scans every boundary of the
// row. Mwa::schedule must produce the very same ScheduleResult — the same
// transfers in the same order with the same steps — because the RIPS engine
// replays that plan task by task, so any reordering changes the simulation.
// ---------------------------------------------------------------------------

/// eta/gamma recurrence of Figure 3 (per-column sends summing to `amount`).
std::vector<i64> reference_sends(const std::vector<i64>& delta, i64 amount) {
  std::vector<i64> send(delta.size(), 0);
  i64 eta = amount;
  i64 gamma = 0;
  for (size_t k = 0; k < delta.size(); ++k) {
    const i64 d = std::clamp(delta[k] - gamma, i64{0}, eta);
    send[k] = d;
    gamma -= delta[k] - d;
    eta -= d;
  }
  EXPECT_EQ(eta, 0);
  return send;
}

ScheduleResult dense_reference_schedule(const topo::Mesh& mesh,
                                        const std::vector<i64>& load) {
  const i32 n1 = mesh.rows();
  const i32 n2 = mesh.cols();
  const i32 n = n1 * n2;
  ScheduleResult out;
  out.new_load = load;
  auto w = [&](i32 i, i32 j) -> i64& {
    return out.new_load[static_cast<size_t>(i * n2 + j)];
  };
  const i64 total = sum_of(load);
  out.info_steps += 2 * (n1 + n2);
  const std::vector<i64> quota = quota_for(total, n);
  auto q = [&](i32 i, i32 j) { return quota[static_cast<size_t>(i * n2 + j)]; };
  std::vector<i64> y(static_cast<size_t>(n1));
  i64 rows_total = 0;
  i64 rows_quota = 0;
  for (i32 i = 0; i < n1; ++i) {
    for (i32 j = 0; j < n2; ++j) {
      rows_total += w(i, j);
      rows_quota += q(i, j);
    }
    y[static_cast<size_t>(i)] = rows_total - rows_quota;
  }
  const auto row_delta = [&](i32 i) {
    std::vector<i64> delta(static_cast<size_t>(n2));
    for (i32 j = 0; j < n2; ++j) {
      delta[static_cast<size_t>(j)] = w(i, j) - q(i, j);
    }
    return delta;
  };

  // Step 4: the downward cascade, then the upward one.
  i32 down = 0;
  for (i32 i = 0, chain = 0; i + 1 < n1; ++i) {
    if (y[static_cast<size_t>(i)] <= 0) {
      chain = 0;
      continue;
    }
    ++chain;
    const auto d = reference_sends(row_delta(i), y[static_cast<size_t>(i)]);
    for (i32 j = 0; j < n2; ++j) {
      const i64 amount = d[static_cast<size_t>(j)];
      if (amount == 0) continue;
      w(i, j) -= amount;
      w(i + 1, j) += amount;
      out.transfers.push_back(
          {mesh.at(i, j), mesh.at(i + 1, j), amount, chain});
    }
    down = std::max(down, chain);
  }
  i32 up = 0;
  for (i32 i = n1 - 1, chain = 0; i >= 1; --i) {
    if (y[static_cast<size_t>(i - 1)] >= 0) {
      chain = 0;
      continue;
    }
    ++chain;
    const auto u =
        reference_sends(row_delta(i), -y[static_cast<size_t>(i - 1)]);
    for (i32 j = 0; j < n2; ++j) {
      const i64 amount = u[static_cast<size_t>(j)];
      if (amount == 0) continue;
      w(i, j) -= amount;
      w(i - 1, j) += amount;
      out.transfers.push_back(
          {mesh.at(i, j), mesh.at(i - 1, j), amount, chain});
    }
    up = std::max(up, chain);
  }
  const i32 step4 = std::max(down, up);
  out.transfer_steps += step4;

  // Step 5: every round decides all sends against start-of-round holdings
  // and scans every boundary of the row.
  i32 step5 = 0;
  for (i32 i = 0; i < n1; ++i) {
    std::vector<i64> flow(static_cast<size_t>(n2), 0);
    i64 prefix = 0;
    for (i32 b = 1; b < n2; ++b) {
      prefix += w(i, b - 1) - q(i, b - 1);
      flow[static_cast<size_t>(b)] = prefix;
    }
    std::vector<i64> hold(&w(i, 0), &w(i, 0) + n2);
    i32 round = 0;
    for (bool pending = true; pending;) {
      pending = false;
      ++round;
      std::vector<i64> reserved(static_cast<size_t>(n2), 0);
      std::vector<Transfer> batch;
      for (i32 b = 1; b < n2; ++b) {
        i64& f = flow[static_cast<size_t>(b)];
        if (f == 0) continue;
        const i32 sender = f > 0 ? b - 1 : b;
        const i32 receiver = f > 0 ? b : b - 1;
        const i64 avail = std::max<i64>(
            0, hold[static_cast<size_t>(sender)] -
                   reserved[static_cast<size_t>(sender)] - q(i, sender));
        const i64 amount = std::min(std::abs(f), avail);
        if (amount > 0) {
          reserved[static_cast<size_t>(sender)] += amount;
          batch.push_back({mesh.at(i, sender), mesh.at(i, receiver), amount,
                           step4 + round});
          f -= f > 0 ? amount : -amount;
        }
        if (f != 0) pending = true;
      }
      for (const Transfer& tr : batch) {
        hold[static_cast<size_t>(mesh.col_of(tr.from))] -= tr.count;
        hold[static_cast<size_t>(mesh.col_of(tr.to))] += tr.count;
        out.transfers.push_back(tr);
      }
    }
    step5 = std::max(step5, round - 1);
    std::copy(hold.begin(), hold.end(), &w(i, 0));
  }
  out.transfer_steps += step5;
  for (const Transfer& tr : out.transfers) out.task_hops += tr.count;
  out.comm_steps = out.info_steps + out.transfer_steps;
  return out;
}

void expect_same_plan(const ScheduleResult& got, const ScheduleResult& want,
                      const std::string& where) {
  ASSERT_EQ(got.transfers.size(), want.transfers.size()) << where;
  for (size_t k = 0; k < got.transfers.size(); ++k) {
    const Transfer& a = got.transfers[k];
    const Transfer& b = want.transfers[k];
    ASSERT_TRUE(a.from == b.from && a.to == b.to && a.count == b.count &&
                a.step == b.step)
        << where << " transfer " << k << ": got " << a.from << "->" << a.to
        << " x" << a.count << " @" << a.step << ", want " << b.from << "->"
        << b.to << " x" << b.count << " @" << b.step;
  }
  EXPECT_EQ(got.info_steps, want.info_steps) << where;
  EXPECT_EQ(got.transfer_steps, want.transfer_steps) << where;
  EXPECT_EQ(got.comm_steps, want.comm_steps) << where;
  EXPECT_EQ(got.task_hops, want.task_hops) << where;
  EXPECT_EQ(got.new_load, want.new_load) << where;
}

/// Seeded loads in three regimes: mostly idle nodes (the engine's late
/// phases), task counts, and work totals up to 10^6 per node (weighted
/// mode).
std::vector<i64> oracle_load(i32 n, int regime, Rng& rng) {
  std::vector<i64> load(static_cast<size_t>(n), 0);
  for (i64& v : load) {
    switch (regime) {
      case 0:
        v = rng.next_below(8) == 0 ? static_cast<i64>(rng.next_below(40)) : 0;
        break;
      case 1:
        v = static_cast<i64>(rng.next_below(60));
        break;
      default:
        v = static_cast<i64>(rng.next_below(1'000'001));
        break;
    }
  }
  return load;
}

/// The oracle's mesh shapes. 64x64 and 128x64 reach 4,096 nodes, where
/// step 5 runs its rows in blocks on the host pool.
std::vector<std::pair<i32, i32>> oracle_shapes() {
  return {{1, 1},  {1, 2},   {1, 7},   {1, 32}, {2, 1},  {9, 1},
          {32, 1}, {2, 2},   {4, 4},   {8, 8},  {16, 16}, {32, 32},
          {2, 16}, {16, 2},  {3, 5},   {5, 3},  {4, 8},  {8, 4},
          {7, 13}, {32, 8},  {8, 32},  {64, 64}, {128, 64}};
}

TEST(MwaOracle, PlanEqualsTheDenseStep5Reference) {
  Rng rng(0x5EED5);
  for (const auto& [rows, cols] : oracle_shapes()) {
    const topo::Mesh mesh{rows, cols};
    Mwa mwa(mesh);  // reused across trials, as the engine reuses it
    for (int regime = 0; regime < 3; ++regime) {
      for (int trial = 0; trial < 12; ++trial) {
        const auto load = oracle_load(mesh.size(), regime, rng);
        expect_same_plan(mwa.schedule(load),
                         dense_reference_schedule(mesh, load),
                         mesh.name() + " regime " + std::to_string(regime) +
                             " trial " + std::to_string(trial));
      }
    }
  }
}

/// The lanes contract (ScheduleResult) as MWA fills it: stage 0 is step 4
/// with one lane per column, stage 1 is step 5 with one lane per row; the
/// stages are consecutive in plan order, every transfer is in exactly one
/// lane of its stage, each lane lists its transfers in plan order, and no
/// node is in two lanes of one stage.
void expect_lanes_contract(const topo::Mesh& mesh, const ScheduleResult& plan,
                           const std::string& where) {
  ASSERT_EQ(plan.stage_ends.size(), 2u) << where;
  EXPECT_EQ(plan.stage_ends[0], static_cast<u32>(mesh.cols())) << where;
  ASSERT_EQ(plan.stage_ends[1], static_cast<u32>(mesh.cols() + mesh.rows()))
      << where;
  ASSERT_EQ(plan.lane_ends.size(), plan.stage_ends[1]) << where;
  ASSERT_EQ(plan.lane_transfers.size(), plan.transfers.size()) << where;
  std::vector<int> seen(plan.transfers.size(), 0);
  u32 lane = 0;
  u32 entry = 0;
  size_t stage_first = 0;  // the stage's first transfer in plan order
  for (size_t s = 0; s < plan.stage_ends.size(); ++s) {
    std::vector<i64> owner(static_cast<size_t>(mesh.size()), -1);
    size_t count = 0;
    size_t last = 0;
    for (; lane < plan.stage_ends[s]; ++lane) {
      ASSERT_LE(entry, plan.lane_ends[lane]) << where << " lane " << lane;
      const u32 lane_first = entry;
      for (; entry < plan.lane_ends[lane]; ++entry) {
        const u32 t = plan.lane_transfers[entry];
        ASSERT_LT(t, plan.transfers.size()) << where;
        ASSERT_GE(t, stage_first) << where << ": transfer " << t
                                  << " precedes its stage";
        if (entry > lane_first) {
          EXPECT_LT(plan.lane_transfers[entry - 1], t)
              << where << ": lane " << lane << " out of plan order";
        }
        ++seen[t];
        ++count;
        last = std::max<size_t>(last, t);
        const Transfer& tr = plan.transfers[t];
        if (s == 0) {
          EXPECT_EQ(mesh.col_of(tr.from), static_cast<i32>(lane)) << where;
          EXPECT_EQ(mesh.col_of(tr.to), static_cast<i32>(lane)) << where;
        } else {
          const auto row = static_cast<i32>(lane - plan.stage_ends[0]);
          EXPECT_EQ(mesh.row_of(tr.from), row) << where;
          EXPECT_EQ(mesh.row_of(tr.to), row) << where;
        }
        for (const NodeId node : {tr.from, tr.to}) {
          i64& o = owner[static_cast<size_t>(node)];
          EXPECT_TRUE(o < 0 || o == lane)
              << where << ": node " << node << " in lanes " << o << " and "
              << lane << " of stage " << s;
          o = lane;
        }
      }
    }
    if (count > 0) {
      EXPECT_EQ(last, stage_first + count - 1)
          << where << ": stage " << s << " is not consecutive in plan order";
    }
    stage_first += count;
  }
  EXPECT_EQ(stage_first, plan.transfers.size()) << where;
  for (size_t t = 0; t < seen.size(); ++t) {
    ASSERT_EQ(seen[t], 1) << where << ": transfer " << t;
  }
}

/// Transfer indices stage by stage, each stage's lanes last to first, each
/// lane in its own order.
std::vector<u32> reverse_lane_order(const ScheduleResult& plan) {
  std::vector<u32> order;
  u32 first_lane = 0;
  for (const u32 stage_end : plan.stage_ends) {
    for (u32 lane = stage_end; lane-- > first_lane;) {
      const u32 begin = lane == 0 ? 0 : plan.lane_ends[lane - 1];
      order.insert(order.end(), plan.lane_transfers.begin() + begin,
                   plan.lane_transfers.begin() + plan.lane_ends[lane]);
    }
    first_lane = stage_end;
  }
  return order;
}

/// Replays the transfers in `order` and returns what each node saw: the
/// transfers it took part in, with its holdings after each. Equal results
/// mean every node meets its transfers in the same order, so any replay
/// that moves tasks node by node (the engine's) ends the same.
std::vector<std::vector<std::pair<u32, i64>>> node_histories(
    const std::vector<i64>& load, const ScheduleResult& plan,
    const std::vector<u32>& order) {
  std::vector<i64> hold(load);
  std::vector<std::vector<std::pair<u32, i64>>> seen(load.size());
  for (const u32 t : order) {
    const Transfer& tr = plan.transfers[t];
    const auto from = static_cast<size_t>(tr.from);
    const auto to = static_cast<size_t>(tr.to);
    hold[from] -= tr.count;
    hold[to] += tr.count;
    EXPECT_GE(hold[from], 0) << "transfer " << t << " exceeds holdings";
    seen[from].emplace_back(t, hold[from]);
    seen[to].emplace_back(t, hold[to]);
  }
  return seen;
}

/// Task-level replay in `order`: node k starts with load[k] tasks of its
/// own (ids k * stride + i), and a transfer moves the sender's top `count`
/// tasks onto the receiver, in pop order. Returns every node's stack.
std::vector<std::vector<i64>> replay_tasks(const std::vector<i64>& load,
                                           const ScheduleResult& plan,
                                           const std::vector<u32>& order) {
  const i64 stride = 1 + *std::max_element(load.begin(), load.end());
  std::vector<std::vector<i64>> stack(load.size());
  for (size_t k = 0; k < load.size(); ++k) {
    for (i64 i = 0; i < load[k]; ++i) {
      stack[k].push_back(static_cast<i64>(k) * stride + i);
    }
  }
  for (const u32 t : order) {
    const Transfer& tr = plan.transfers[t];
    auto& src = stack[static_cast<size_t>(tr.from)];
    auto& dst = stack[static_cast<size_t>(tr.to)];
    for (i64 i = 0; i < tr.count; ++i) {
      dst.push_back(src.back());
      src.pop_back();
    }
  }
  return stack;
}

TEST(MwaOracle, LanesAreIndependentAndReplayInAnyOrder) {
  Rng rng(0x1A4E5);
  for (const auto& [rows, cols] : oracle_shapes()) {
    const topo::Mesh mesh{rows, cols};
    Mwa mwa(mesh);
    for (int regime = 0; regime < 3; ++regime) {
      for (int trial = 0; trial < 4; ++trial) {
        const std::string where = mesh.name() + " regime " +
                                  std::to_string(regime) + " trial " +
                                  std::to_string(trial);
        const auto load = oracle_load(mesh.size(), regime, rng);
        const ScheduleResult& plan = mwa.schedule(load);
        expect_lanes_contract(mesh, plan, where);
        std::vector<u32> in_order(plan.transfers.size());
        std::iota(in_order.begin(), in_order.end(), 0u);
        const std::vector<u32> reversed = reverse_lane_order(plan);
        ASSERT_EQ(reversed.size(), in_order.size()) << where;
        EXPECT_EQ(node_histories(load, plan, reversed),
                  node_histories(load, plan, in_order))
            << where;
        if (regime < 2) {  // task counts, not work totals
          EXPECT_EQ(replay_tasks(load, plan, reversed),
                    replay_tasks(load, plan, in_order))
              << where;
        }
      }
    }
  }
}

// Known undercount of step-5 rounds: Mwa::schedule leaves each row's last
// round uncounted, so these plans report one transfer step fewer than
// they take ([2,0,1] moves one task in one round; [5,0,0,0] needs three
// rounds). Fixing it changes every simulated system-phase duration; these
// cases pin today's figures until a change that regenerates the
// baselines fixes it.
TEST(MwaOracle, PinsTheKnownStep5RoundUndercount) {
  {
    Mwa mwa(topo::Mesh{1, 3});
    const auto& plan = mwa.schedule({2, 0, 1});
    EXPECT_EQ(plan.transfers.size(), 1u);
    EXPECT_EQ(plan.transfer_steps, 0);
  }
  {
    Mwa mwa(topo::Mesh{1, 4});
    const auto& plan = mwa.schedule({5, 0, 0, 0});
    EXPECT_EQ(plan.transfer_steps, 2);
  }
}

TEST(QuotaFor, SplitsRemainderOverFirstNodes) {
  EXPECT_EQ(quota_for(10, 4), (std::vector<i64>{3, 3, 2, 2}));
  EXPECT_EQ(quota_for(0, 3), (std::vector<i64>{0, 0, 0}));
  EXPECT_EQ(quota_for(7, 1), (std::vector<i64>{7}));
}

TEST(MinNonlocalTasks, CountsUnderloadOnly) {
  EXPECT_EQ(min_nonlocal_tasks({5, 1, 0}, {2, 2, 2}), 3);
  EXPECT_EQ(min_nonlocal_tasks({2, 2, 2}, {2, 2, 2}), 0);
}

TEST(ReplayTransfers, ForwardsForeignTasksFirst) {
  // Node 1 relays: it receives 2 tasks from node 0 and sends 2 to node 2.
  // Forwarding the received (foreign) tasks keeps its own tasks local, so
  // only 2 tasks end up non-local.
  const std::vector<i64> load{2, 2, 0};
  const std::vector<Transfer> plan{{0, 1, 2, 1}, {1, 2, 2, 2}};
  const auto replay = replay_transfers(load, plan);
  EXPECT_EQ(replay.final_load, (std::vector<i64>{0, 2, 2}));
  EXPECT_EQ(replay.nonlocal_tasks, 2);
  EXPECT_EQ(replay.task_hops, 4);
}

}  // namespace
}  // namespace rips::sched
