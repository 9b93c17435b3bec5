// Tests for the extension schedulers: HWA (exact hypercube walking) and
// TorusWalk (MWA generalized to wraparound meshes), plus the Torus
// topology itself.
#include <gtest/gtest.h>

#include <numeric>

#include "flow/mincost_flow.hpp"
#include "sched/dem.hpp"
#include "sched/hwa.hpp"
#include "sched/mwa.hpp"
#include "sched/scheduler.hpp"
#include "sched/torus_walk.hpp"
#include "topo/torus.hpp"
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

// ------------------------------------------------------------- Torus

TEST(Torus, WraparoundDistances) {
  topo::Torus torus(4, 8);
  EXPECT_EQ(torus.distance(torus.at(0, 0), torus.at(3, 0)), 1);
  EXPECT_EQ(torus.distance(torus.at(0, 0), torus.at(0, 7)), 1);
  EXPECT_EQ(torus.distance(torus.at(0, 0), torus.at(2, 4)), 6);
  EXPECT_EQ(torus.diameter(), 6);
}

TEST(Torus, NeighborsAreSymmetricAndDeduped) {
  for (const auto& [rows, cols] : {std::pair{1, 1}, std::pair{2, 2},
                                   std::pair{1, 4}, std::pair{4, 4},
                                   std::pair{2, 8}}) {
    topo::Torus torus(rows, cols);
    for (NodeId u = 0; u < torus.size(); ++u) {
      const auto nbrs = torus.neighbors(u);
      for (size_t a = 0; a < nbrs.size(); ++a) {
        EXPECT_NE(nbrs[a], u);
        for (size_t b = a + 1; b < nbrs.size(); ++b) {
          EXPECT_NE(nbrs[a], nbrs[b]) << torus.name() << " node " << u;
        }
        EXPECT_EQ(torus.distance(u, nbrs[a]), 1);
        const auto back = torus.neighbors(nbrs[a]);
        EXPECT_NE(std::find(back.begin(), back.end(), u), back.end());
      }
    }
  }
}

TEST(Torus, ShorterDiameterThanMesh) {
  topo::Mesh mesh(8, 8);
  topo::Torus torus(8, 8);
  EXPECT_LT(torus.diameter(), mesh.diameter());
}

TEST(Torus, AtWrapsCoordinates) {
  topo::Torus torus(4, 4);
  EXPECT_EQ(torus.at(-1, 0), torus.at(3, 0));
  EXPECT_EQ(torus.at(0, 4), torus.at(0, 0));
}

// --------------------------------------------------------------- HWA

class HwaProperties : public ::testing::TestWithParam<i32> {};

TEST_P(HwaProperties, ExactBalanceAndLocality) {
  const i32 dim = GetParam();
  const i32 n = 1 << dim;
  Hwa hwa(topo::Hypercube{dim});
  Rng rng(900 + static_cast<u64>(dim));
  for (int trial = 0; trial < 40; ++trial) {
    auto load = random_load(n, 9, rng);
    load[0] += (n - sum_of(load) % n) % n;  // exact regime for Theorem 2
    const auto quota = quota_for(sum_of(load), n);
    const auto result = hwa.schedule(load);
    EXPECT_EQ(result.new_load, quota);
    const auto replay = replay_transfers(load, result.transfers);
    EXPECT_EQ(replay.final_load, quota);
    EXPECT_EQ(replay.nonlocal_tasks, min_nonlocal_tasks(load, quota))
        << "dim " << dim << " trial " << trial;
    // Transfers cross single hypercube links.
    topo::Hypercube cube{dim};
    for (const Transfer& tr : result.transfers) {
      EXPECT_EQ(cube.distance(tr.from, tr.to), 1);
    }
    // One transfer step per dimension at most, d info steps.
    EXPECT_LE(result.comm_steps, 2 * dim);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, HwaProperties,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8));

TEST(Hwa, BeatsDemOnResidualImbalance) {
  Hwa hwa(topo::Hypercube{5});
  DemHypercube dem(topo::Hypercube{5});
  Rng rng(31);
  i64 dem_worst = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto load = random_load(32, 10, rng);
    const auto h = hwa.schedule(load);
    const auto d = dem.schedule(load);
    const auto [hlo, hhi] = std::minmax_element(h.new_load.begin(),
                                                h.new_load.end());
    const auto [dlo, dhi] = std::minmax_element(d.new_load.begin(),
                                                d.new_load.end());
    EXPECT_LE(*hhi - *hlo, 1);
    dem_worst = std::max(dem_worst, *dhi - *dlo);
  }
  EXPECT_GT(dem_worst, 1);  // DEM really does leave residual imbalance
}

TEST(Hwa, MovesLessVolumeThanDem) {
  Hwa hwa(topo::Hypercube{5});
  DemHypercube dem(topo::Hypercube{5});
  Rng rng(37);
  i64 hwa_total = 0;
  i64 dem_total = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto load = random_load(32, 15, rng);
    hwa_total += hwa.schedule(load).task_hops;
    dem_total += dem.schedule(load).task_hops;
  }
  EXPECT_LT(hwa_total, dem_total);
}

// --------------------------------------------------------- TorusWalk

struct TorusCase {
  i32 rows;
  i32 cols;
  i64 mean;
};

class TorusWalkProperties : public ::testing::TestWithParam<TorusCase> {};

TEST_P(TorusWalkProperties, ExactBalance) {
  const auto [rows, cols, mean] = GetParam();
  TorusWalk walk(topo::Torus{rows, cols});
  Rng rng(1100 + static_cast<u64>(rows * 31 + cols + mean));
  for (int trial = 0; trial < 40; ++trial) {
    const auto load = random_load(rows * cols, mean, rng);
    const auto quota = quota_for(sum_of(load), rows * cols);
    const auto result = walk.schedule(load);
    EXPECT_EQ(result.new_load, quota);
    const auto replay = replay_transfers(load, result.transfers);
    EXPECT_EQ(replay.final_load, quota);
  }
}

TEST_P(TorusWalkProperties, TransfersAreLinkLocal) {
  const auto [rows, cols, mean] = GetParam();
  topo::Torus torus{rows, cols};
  TorusWalk walk(torus);
  Rng rng(1200 + static_cast<u64>(rows * 31 + cols + mean));
  const auto result = walk.schedule(random_load(rows * cols, mean, rng));
  for (const Transfer& tr : result.transfers) {
    EXPECT_EQ(torus.distance(tr.from, tr.to), 1) << torus.name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TorusWalkProperties,
    ::testing::Values(TorusCase{1, 1, 5}, TorusCase{1, 8, 5},
                      TorusCase{8, 1, 5}, TorusCase{2, 2, 4},
                      TorusCase{4, 4, 10}, TorusCase{8, 4, 3},
                      TorusCase{8, 8, 25}, TorusCase{3, 5, 7},
                      TorusCase{16, 8, 6}, TorusCase{5, 7, 4},
                      TorusCase{2, 16, 9}));

TEST(TorusWalk, CheaperThanMwaOnWrapFriendlyLoads) {
  // Load concentrated on the last row: the torus routes one hop backwards
  // while the mesh must walk the whole column.
  topo::Torus torus(8, 4);
  topo::Mesh mesh(8, 4);
  TorusWalk walk(torus);
  Mwa mwa(mesh);
  std::vector<i64> load(32, 0);
  for (i32 j = 0; j < 4; ++j) load[static_cast<size_t>(7 * 4 + j)] = 64;
  const auto torus_result = walk.schedule(load);
  const auto mesh_result = mwa.schedule(load);
  EXPECT_EQ(torus_result.new_load, mesh_result.new_load);
  EXPECT_LT(torus_result.task_hops, mesh_result.task_hops);
}

TEST(TorusWalk, NeverBeatsFlowOptimumOnItsTopology) {
  topo::Torus torus(4, 4);
  TorusWalk walk(torus);
  Rng rng(55);
  for (int trial = 0; trial < 40; ++trial) {
    const auto load = random_load(16, 8, rng);
    const auto result = walk.schedule(load);
    const auto opt = flow::optimal_balance_cost(
        torus, load, quota_for(sum_of(load), 16));
    EXPECT_GE(result.task_hops, opt.total_cost);
  }
}

TEST(SchedulerFactoryExtensions, HwaAndTorusWork) {
  for (const char* kind : {"hwa", "torus"}) {
    const auto sched = make_scheduler(kind, 16);
    Rng rng(3);
    const auto load = random_load(16, 5, rng);
    const auto result = sched->schedule(load);
    EXPECT_EQ(result.new_load, quota_for(sum_of(load), 16)) << kind;
  }
}

}  // namespace
}  // namespace rips::sched
