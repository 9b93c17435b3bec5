// LiveView — a Topology over the surviving subset of a base machine.
//
// After fail-stop crashes the RIPS engine keeps scheduling over a logical
// machine of L = |live| nodes. LiveView provides the rank <-> physical
// mapping and a Topology for the survivors: two live nodes are adjacent
// when the base network joins them by a path whose intermediate nodes are
// all dead (message routers outlive the compute side of a failed node, the
// usual MPP assumption), so the surviving subset is always connected as
// long as the base topology is. Generic consumers (collectives, distance
// lookups, OptimalFlow) work on a LiveView directly; shape-specific
// schedulers (MWA, TWA, RingScan) are rebuilt over a fresh machine of L
// logical nodes and driven through the rank mapping.
//
// Memory stays linear in the machine: a source's distance row (L ints) is
// built by BFS on its first distance() query — the engine asks only from
// initiators — and diameter() bounds every survivor's eccentricity from a
// few BFS (Takes & Kosters' BoundingDiameters), once per view.
#pragma once

#include <vector>

#include "topo/topology.hpp"
#include "util/types.hpp"

namespace rips::topo {

class LiveView final : public Topology {
 public:
  /// `live` lists the surviving physical node ids (deduplicated, any
  /// order; stored sorted so rank order is deterministic).
  LiveView(const Topology& base, std::vector<NodeId> live);

  i32 size() const override { return static_cast<i32>(live_.size()); }
  std::string name() const override;
  void append_neighbors(NodeId rank, std::vector<NodeId>& out) const override;
  i32 distance(NodeId a, NodeId b) const override;
  i32 diameter() const override;

  /// Physical id of logical rank r.
  NodeId physical(i32 rank) const {
    RIPS_CHECK(rank >= 0 && rank < size());
    return live_[static_cast<size_t>(rank)];
  }
  /// Logical rank of a physical node, or kInvalidNode if it is dead.
  i32 rank_of(NodeId phys) const {
    RIPS_CHECK(phys >= 0 && phys < static_cast<i32>(rank_of_.size()));
    return rank_of_[static_cast<size_t>(phys)];
  }
  const std::vector<NodeId>& live() const { return live_; }

 private:
  std::vector<NodeId> live_;                 // rank -> physical, sorted
  std::vector<i32> rank_of_;                 // physical -> rank or -1
  std::vector<std::vector<NodeId>> adj_;     // per rank, relay adjacency
  mutable std::vector<std::vector<i32>> rows_;  // per rank, BFS on first use
  mutable i32 diameter_ = -1;                // cached on first diameter()
  std::string base_name_;

  /// Hop distances from `rank` to every rank, into `row`.
  void bfs(i32 rank, std::vector<i32>& row) const;
};

}  // namespace rips::topo
