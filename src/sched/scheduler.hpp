// Parallel scheduling algorithms (the system-phase half of RIPS).
//
// A ParallelScheduler takes the per-node task counts at the start of a
// system phase and produces (a) the balanced per-node counts and (b) an
// ordered plan of link-local transfers that realizes them, together with
// the lock-step communication-step count the parallel algorithm would take
// on the real machine. The RIPS engine replays the plan on its actual task
// queues; benches use the counters directly.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "topo/topology.hpp"
#include "util/types.hpp"

namespace rips::sched {

/// One bulk task movement across a single link, in execution order.
/// `step` is the lock-step round in which the transfer happens; transfers
/// with equal step are concurrent on the machine.
struct Transfer {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  i64 count = 0;
  i32 step = 0;
};

/// Outcome of one system-phase scheduling round.
///
/// Lanes (optional; empty unless the scheduler fills them): which
/// transfers of the plan are independent. The plan splits into stages,
/// consecutive in plan order, and each stage into lanes. A lane lists its
/// transfers in plan order, every transfer of a stage is in exactly one of
/// its lanes, and no two lanes of a stage share a node. Replaying the
/// stages in order, each stage's lanes in any order, therefore moves every
/// task as the plan order does. `transfers` keeps the plan order either
/// way. A plan without lanes is one lane.
struct ScheduleResult {
  std::vector<i64> new_load;        ///< per-node counts after balancing
  std::vector<Transfer> transfers;  ///< ordered link-local moves
  i64 comm_steps = 0;     ///< total lock-step rounds (info + transfer)
  i64 info_steps = 0;     ///< rounds carrying scalar load information only
  i64 transfer_steps = 0; ///< rounds moving task payloads
  i64 task_hops = 0;      ///< sum over links of tasks crossing them (Σ e_k)
  /// Stage s holds lanes [stage_ends[s - 1], stage_ends[s]) (from 0 for
  /// s = 0); lane l holds the transfers transfers[lane_transfers[i]] for i
  /// in [lane_ends[l - 1], lane_ends[l]) (from 0 for l = 0).
  std::vector<u32> stage_ends;
  std::vector<u32> lane_ends;
  std::vector<u32> lane_transfers;

  /// Empties the result for reuse, keeping vector capacity (the
  /// schedulers call this at the top of schedule() on their pooled
  /// result so steady-state phases never reallocate).
  void reset() {
    new_load.clear();
    transfers.clear();
    stage_ends.clear();
    lane_ends.clear();
    lane_transfers.clear();
    comm_steps = info_steps = transfer_steps = task_hops = 0;
  }
};

class ParallelScheduler {
 public:
  virtual ~ParallelScheduler() = default;

  /// Balances `load` (size = topology().size()). Total is conserved; the
  /// result loads differ pairwise by at most one for all schedulers in
  /// this library except DEM (which is approximate by design).
  ///
  /// The returned result is owned by the scheduler and stays valid until
  /// the next schedule() call (or destruction). Schedulers reuse the
  /// result's storage and their internal scratch arenas across calls, so
  /// a steady-state system phase performs no heap allocation. Callers
  /// that need the plan beyond the next call must copy it.
  virtual const ScheduleResult& schedule(const std::vector<i64>& load) = 0;

  virtual const topo::Topology& topology() const = 0;
  virtual std::string name() const = 0;
};

/// The paper's quota rule: wavg = floor(T/N), R = T mod N; the first R
/// nodes (row-major id order) get wavg + 1, the rest wavg.
std::vector<i64> quota_for(i64 total, i32 num_nodes);

/// Fill-in-place variant of quota_for: resizes `quota` to num_nodes and
/// overwrites it. Allocation-free once `quota` has capacity — this is what
/// the schedulers' steady-state arenas use.
void quota_into(i64 total, i32 num_nodes, std::vector<i64>& quota);

/// Lower bound on non-local tasks to reach `quota` from `load`
/// (Lemma 1: sum over underloaded nodes of quota - load).
i64 min_nonlocal_tasks(const std::vector<i64>& load,
                       const std::vector<i64>& quota);

/// max(load) - min(load): the spread the scheduler must close, and — on
/// its output — the Theorem-1 quality figure (0 or 1 for every exact
/// scheduler in this library). 0 for an empty vector.
i64 load_imbalance(const std::vector<i64>& load);

/// Replays a transfer plan against per-node multisets of task origins and
/// reports what actually moved. When forwarding, foreign (already moved)
/// tasks are sent before local ones, which is the locality-maximizing
/// policy the RIPS engine also uses.
struct ReplayResult {
  std::vector<i64> final_load;
  i64 nonlocal_tasks = 0;  ///< tasks ending on a node other than the origin
  i64 task_hops = 0;       ///< total (task, link) traversals
};
ReplayResult replay_transfers(const std::vector<i64>& load,
                              const std::vector<Transfer>& transfers);

/// Factory: kind in {mwa, twa, dem, dem-mesh, hwa, torus, ring,
/// optimal}; n must match what the kind supports (see each class).
/// Throws std::invalid_argument (naming the offending value) on an unknown
/// kind, n <= 0, or an n the kind cannot shape (e.g. a non-power-of-two
/// mesh for mwa).
std::unique_ptr<ParallelScheduler> make_scheduler(const std::string& kind,
                                                  i32 n);

/// Builds a scheduler for an n-node machine. The fault-tolerant RIPS
/// engine uses one of these to rebuild its scheduler over the survivors
/// after a crash, where n is rarely a power of two.
using SchedulerFactory = std::function<std::unique_ptr<ParallelScheduler>(i32)>;

/// Default degraded-machine factory: MWA over the near-square mesh of n
/// (any n >= 1).
SchedulerFactory any_size_mesh_factory();

}  // namespace rips::sched
