// Collective engine tests: step counts under the lock-step model and
// correctness of the data-carrying collectives.
#include <gtest/gtest.h>

#include <algorithm>

#include "coll/collectives.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace rips::coll {
namespace {

TEST(Collectives, EccentricityOnMesh) {
  topo::Mesh mesh(4, 4);
  Collectives coll(mesh);
  EXPECT_EQ(coll.eccentricity(mesh.at(0, 0)), 6);
  EXPECT_EQ(coll.eccentricity(mesh.at(1, 1)), 4);
  EXPECT_EQ(coll.broadcast_steps(mesh.at(0, 0)), 6);
  EXPECT_EQ(coll.or_barrier_steps(mesh.at(0, 0)), 12);
}

TEST(Collectives, EccentricityOnHypercube) {
  topo::Hypercube cube(5);
  Collectives coll(cube);
  for (NodeId v : {0, 7, 31}) {
    EXPECT_EQ(coll.eccentricity(v), 5);
  }
  EXPECT_EQ(coll.ready_signal_steps(), 10);
}

TEST(Collectives, SingleNodeHasZeroCost) {
  topo::Ring ring(1);
  Collectives coll(ring);
  EXPECT_EQ(coll.eccentricity(0), 0);
  EXPECT_EQ(coll.or_barrier_steps(0), 0);
}

TEST(Collectives, AllReduceComputesMaxAndCountsDiameterSteps) {
  topo::Mesh mesh(4, 8);
  Collectives coll(mesh);
  Rng rng(99);
  std::vector<i64> values(32);
  for (auto& v : values) v = static_cast<i64>(rng.next_below(1000));
  const i64 expect = *std::max_element(values.begin(), values.end());

  Ledger ledger;
  const i64 got = coll.all_reduce(
      values, [](i64 a, i64 b) { return std::max(a, b); }, ledger);
  EXPECT_EQ(got, expect);
  EXPECT_LE(ledger.comm_steps, mesh.diameter());
  EXPECT_GT(ledger.messages, 0);
}

TEST(Collectives, AllReduceSum_WithMonotoneEncoding) {
  // Sum is not idempotent under flooding, so we all-reduce a max over
  // prefix-encoded contributions instead: here we just verify max works on
  // several topologies to cover the generic engine.
  for (const char* kind : {"mesh", "hypercube", "ring", "tree"}) {
    const i32 n = 16;
    const auto topo = topo::make_topology(kind, n);
    Collectives coll(*topo);
    std::vector<i64> values(static_cast<size_t>(n));
    for (i32 i = 0; i < n; ++i) values[static_cast<size_t>(i)] = i * 7 % 13;
    Ledger ledger;
    const i64 got = coll.all_reduce(
        values, [](i64 a, i64 b) { return std::max(a, b); }, ledger);
    EXPECT_EQ(got, *std::max_element(values.begin(), values.end()))
        << kind;
  }
}

TEST(Collectives, BroadcastReachesEveryoneWithinEccentricity) {
  for (const char* kind : {"mesh", "hypercube", "ring", "tree"}) {
    const i32 n = 32;
    const auto topo = topo::make_topology(kind, n);
    Collectives coll(*topo);
    Ledger ledger;
    const auto values = coll.broadcast(0, 42, ledger);
    ASSERT_EQ(values.size(), static_cast<size_t>(n));
    for (i64 v : values) EXPECT_EQ(v, 42);
    EXPECT_EQ(ledger.comm_steps, coll.eccentricity(0)) << kind;
  }
}

TEST(MeshScan, RowScanComputesPrefixesAndSteps) {
  topo::Mesh mesh(2, 4);
  Ledger ledger;
  const std::vector<i64> values{1, 2, 3, 4, 10, 20, 30, 40};
  const auto out = mesh_row_scan(mesh, values, ledger);
  EXPECT_EQ(out, (std::vector<i64>{1, 3, 6, 10, 10, 30, 60, 100}));
  EXPECT_EQ(ledger.comm_steps, 3);
  EXPECT_EQ(ledger.messages, 6);
}

TEST(MeshScan, ColScanComputesPrefixesAndSteps) {
  topo::Mesh mesh(3, 2);
  Ledger ledger;
  const std::vector<i64> values{1, 2, 3, 4, 5, 6};
  const auto out = mesh_col_scan(mesh, values, ledger);
  EXPECT_EQ(out, (std::vector<i64>{1, 2, 4, 6, 9, 12}));
  EXPECT_EQ(ledger.comm_steps, 2);
}

TEST(MeshScan, MwaInformationPhaseCostFromPrimitives) {
  // Figure 3 steps 1-2: a row scan + a column scan + broadcast + spread
  // land at the 2(n1+n2) scalar steps RipsEngine charges.
  topo::Mesh mesh(8, 4);
  Collectives coll(mesh);
  Ledger ledger;
  const std::vector<i64> values(32, 1);
  (void)mesh_row_scan(mesh, values, ledger);
  (void)mesh_col_scan(mesh, values, ledger);
  ledger.comm_steps += coll.broadcast_steps(mesh.at(7, 3));  // wavg/R
  ledger.comm_steps += mesh.cols() - 1;                      // spread s/t
  EXPECT_LE(ledger.comm_steps, 2 * (8 + 4));
}

TEST(MeshScan, SingleColumnRowScanIsFree) {
  topo::Mesh mesh(4, 1);
  Ledger ledger;
  const auto out = mesh_row_scan(mesh, {5, 6, 7, 8}, ledger);
  EXPECT_EQ(out, (std::vector<i64>{5, 6, 7, 8}));
  EXPECT_EQ(ledger.comm_steps, 0);
}

TEST(Collectives, BroadcastFromCenterIsCheaper) {
  topo::Mesh mesh(8, 8);
  Collectives coll(mesh);
  EXPECT_LT(coll.broadcast_steps(mesh.at(4, 4)),
            coll.broadcast_steps(mesh.at(0, 0)));
}

}  // namespace
}  // namespace rips::coll
