// Deterministic fault injection for the simulated machine.
//
// A FaultPlan is a fully materialized schedule of misbehaviour: fail-stop
// node crashes at fixed sim-times and a per-message drop probability for
// collective steps. Plans are either written out by hand (targeted tests)
// or expanded from a seed + FaultSpec (MTBF sweeps); either way every run
// against the same plan is bit-reproducible: every drop decision is a pure
// hash of (plan seed, operation id, endpoints, attempt), never of wall
// time or of iteration order.
//
// The FaultInjector is the read-only query interface the engine consults
// during a run. It holds no mutable state, so one injector can serve
// repeated runs and concurrent what-if passes.
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace rips::sim {

/// Fail-stop crash: the node executes nothing at or after `time_ns` and
/// never sends another message. Crash times are honored at user-phase
/// granularity by the RIPS engine (a crash timed inside a system phase
/// takes effect at the start of the next user phase).
struct CrashFault {
  NodeId node = kInvalidNode;
  SimTime time_ns = 0;
};

/// Knobs for FaultPlan::generate. The MTBF is a whole-machine mean: crash
/// inter-arrival times are exponential with mean `crash_mtbf_ns` and each
/// event picks a victim node uniformly.
struct FaultSpec {
  SimTime horizon_ns = 0;      ///< generate crashes in [0, horizon)
  double crash_mtbf_ns = 0.0;  ///< 0 = no crashes
  double drop_prob = 0.0;      ///< per collective message
};

struct FaultPlan {
  u64 seed = 0;
  double drop_prob = 0.0;
  std::vector<CrashFault> crashes;  ///< kept sorted by time

  bool empty() const { return crashes.empty() && drop_prob == 0.0; }

  /// Expands a seed + spec into a concrete plan. Never schedules more than
  /// num_nodes - 1 crashes (the machine keeps at least one survivor) and
  /// never crashes the same node twice.
  static FaultPlan generate(u64 seed, i32 num_nodes, const FaultSpec& spec);

  std::string summary() const;
};

class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, i32 num_nodes);

  bool has_message_faults() const { return plan_.drop_prob > 0.0; }

  /// Crash events, sorted by time (ties broken by node id).
  const std::vector<CrashFault>& crashes() const { return plan_.crashes; }

  /// Deterministic per-message drop decision for attempt `attempt` of the
  /// (from -> to) message of collective operation `op_id`.
  bool drop_message(u64 op_id, NodeId from, NodeId to, i64 attempt) const;

 private:
  FaultPlan plan_;
};

}  // namespace rips::sim
