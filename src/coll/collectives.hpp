// Collective operations over a topology, in the lock-step model the paper
// uses for its cost analysis: in one communication step every node may
// exchange one message with each of its neighbors (synchronous, all-port).
//
// Under this model a broadcast from root r takes ecc(r) steps (the BFS
// eccentricity of r), a reduction takes the same, an all-reduce or
// or-barrier takes 2 * ecc and a tree ready-signal protocol (the paper's
// ALL-policy implementation) takes depth(tree) up + ecc down for the init
// broadcast.
//
// The data-carrying collectives (all_reduce, broadcast, the mesh scans)
// execute while counting steps; tests check the step formulas and MWA's
// information-step cost against them, so claimed costs are measured, not
// asserted. The *_faulty signal protocols are what the RIPS engine runs to
// detect phase ends under faults (docs/FAULTS.md).
#pragma once

#include <functional>
#include <vector>

#include "topo/topology.hpp"
#include "util/types.hpp"

namespace rips::obs {
class TelemetryBus;
}

namespace rips::coll {

/// Counters accumulated by collective executions.
struct Ledger {
  i64 comm_steps = 0;  ///< lock-step rounds
  i64 messages = 0;    ///< point-to-point messages sent
};

/// Decides whether attempt `attempt` of the (from -> to) message of the
/// current collective is lost. A node that is fail-stop dead is modeled as
/// an endpoint whose messages always drop; transient loss is a seeded
/// per-attempt decision (sim::FaultInjector::drop_message).
using MessageFault = std::function<bool(NodeId from, NodeId to, i64 attempt)>;

/// One retransmission burst on one tree edge of a faulty collective — the
/// raw material for collective-retry trace spans (obs::TraceSession): which
/// link struggled, and for how many windows.
struct RetryEvent {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  i64 attempts = 0;        ///< retransmissions before delivery (or give-up)
  bool delivered = false;  ///< false = the peer was suspected dead
};

/// Outcome counters of one faulty collective execution.
struct FaultStats {
  i64 dropped = 0;   ///< messages lost on the wire
  i64 retries = 0;   ///< retransmissions issued (sum over edges)
  i64 timeouts = 0;  ///< timeout windows on the critical path
  /// Nodes whose signal never arrived within the retry budget — the
  /// heartbeat piggyback: a silent node is suspected dead after
  /// max_retries + 1 missed windows, instead of stalling the protocol.
  std::vector<NodeId> suspected;
  /// Per-edge retransmission bursts.
  std::vector<RetryEvent> retry_log;
};

class Collectives {
 public:
  explicit Collectives(const topo::Topology& topo);

  const topo::Topology& topology() const { return topo_; }

  /// Optional live telemetry: when a bus is attached, every *_faulty
  /// execution publishes one kCollSuspect TelemetryEvent per peer whose
  /// signal never arrived within the retry budget — the moment the
  /// heartbeat protocol gives a node up, not end-of-run. Node ids are
  /// collective ranks (the caller owns any physical remap). `t` stamps the
  /// published events — the collective layer has no sim clock of its own,
  /// so the caller passes the operation's start time. Publishing is
  /// observational only; pass nullptr to detach.
  void set_telemetry(obs::TelemetryBus* bus, SimTime t = 0) {
    telemetry_ = bus;
    telemetry_t_ = t;
  }

  /// BFS eccentricity of `root` (max hop distance to any node).
  i32 eccentricity(NodeId root) const;

  /// Step cost of a broadcast from `root` (flooding along BFS levels).
  i32 broadcast_steps(NodeId root) const { return eccentricity(root); }

  /// Step cost of a reduction to `root`.
  i32 reduce_steps(NodeId root) const { return eccentricity(root); }

  /// Step cost of an or-barrier initiated by `initiator` (reduce + bcast).
  /// This models both the Cray T3D eureka-style synchronization and the
  /// ANY-policy init broadcast followed by quiescence detection.
  i32 or_barrier_steps(NodeId initiator) const {
    return 2 * eccentricity(initiator);
  }

  /// Step cost of the ALL-policy ready-signal protocol: ready signals climb
  /// a spanning tree rooted at node 0, then `init` is broadcast back down.
  i32 ready_signal_steps() const { return 2 * eccentricity(0); }

  /// Executes an all-reduce of per-node values with a binary combiner by
  /// flooding over the topology; returns the combined value and charges
  /// the ledger with the measured number of steps until every node has
  /// converged (= diameter under the lock-step model).
  i64 all_reduce(const std::vector<i64>& values,
                 const std::function<i64(i64, i64)>& combine,
                 Ledger& ledger) const;

  /// Executes a broadcast of `value` from `root`; returns per-node values
  /// (all equal) and charges measured steps.
  std::vector<i64> broadcast(NodeId root, i64 value, Ledger& ledger) const;

  // --- timeout + bounded-retry variants (fault-tolerant RIPS) ------------
  //
  // Each lost message is retransmitted after a timeout, at most
  // `max_retries` times; a peer silent past the whole budget is recorded in
  // FaultStats::suspected and the protocol completes without it. With a
  // fault function that never drops, every *_faulty cost equals its
  // fault-free counterpart and the stats stay zero.

  /// ALL-policy ready-signal tree (signals climb the BFS spanning tree of
  /// node 0, init returns) under message faults. Returns total steps.
  i32 ready_signal_steps_faulty(const MessageFault& fault, i32 max_retries,
                                Ledger& ledger, FaultStats& stats) const;

  /// ANY-policy or-barrier (reduce to `initiator`, broadcast back) under
  /// message faults. Returns total steps.
  i32 or_barrier_steps_faulty(NodeId initiator, const MessageFault& fault,
                              i32 max_retries, Ledger& ledger,
                              FaultStats& stats) const;

 private:
  /// One tree phase (leaves-to-root when `upward`, root-to-leaves
  /// otherwise) over the BFS spanning tree of `root`, with per-edge
  /// retransmissions. Returns the step count of the phase.
  i32 tree_phase_faulty(NodeId root, bool upward, const MessageFault& fault,
                        i32 max_retries, Ledger& ledger,
                        FaultStats& stats) const;
  const topo::Topology& topo_;
  obs::TelemetryBus* telemetry_ = nullptr;
  SimTime telemetry_t_ = 0;
  mutable std::vector<i32> ecc_cache_;  // -1 = unknown
};

/// Mesh scan collectives — the primitives behind MWA's information phase
/// (Figure 3 steps 1-2). Each returns the per-node inclusive prefix and
/// charges the ledger with the lock-step cost of the pipelined scan.
std::vector<i64> mesh_row_scan(const topo::Mesh& mesh,
                               const std::vector<i64>& values,
                               Ledger& ledger);
std::vector<i64> mesh_col_scan(const topo::Mesh& mesh,
                               const std::vector<i64>& values,
                               Ledger& ledger);

}  // namespace rips::coll
