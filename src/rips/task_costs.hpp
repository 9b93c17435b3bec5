// TaskCosts — the per-task drain costs of one trace under one cost model
// and one local policy (docs/PERFORMANCE.md, "One cost table per trace").
//
// drain[t] is the simulated time a node spends on task t during a full RTE
// drain: its work plus the spawn overhead of its children, plus (Lazy) the
// drain cost of every child, which runs in the same phase. RipsEngine's
// measuring pass sums a queue's entries; exact i64 arithmetic makes the
// sum order independent, so it equals a full simulation of the drain.
//
// A table depends on the trace, the cost model's ns_per_work and spawn_ns
// and the local policy only: never on the machine, the global policy,
// weighting, faults or sinks. So a sweep builds one table per (workload,
// local policy) that two or more RIPS rows replay and lends it to each of
// their engines read-only (RipsEngine::run); every other run fills its
// own.
#pragma once

#include <vector>

#include "apps/task_trace.hpp"
#include "rips/config.hpp"
#include "sim/cost_model.hpp"
#include "util/types.hpp"

namespace rips::core {

struct TaskCosts {
  std::vector<SimTime> drain;  ///< drain cost per filled task
  SimTime sequential_ns = 0;   ///< summed work time of the filled tasks

  // What the table is for.
  const apps::TaskTrace* trace = nullptr;
  double ns_per_work = 0.0;
  SimTime spawn_ns = 0;
  LocalPolicy local = LocalPolicy::kLazy;

  /// Empties the table (keeping its capacity) and points it at `trace`
  /// under `cost` and `local`.
  void reset(const apps::TaskTrace& trace, const sim::CostModel& cost,
             LocalPolicy local);

  /// Fills the tasks the trace appended since the last fill, [drain.size(),
  /// trace->size()), with one backward sweep, and returns their summed work
  /// time (also added to sequential_ns). Children always have larger ids
  /// than their parent, so a new task's subtree lies inside the new range
  /// or is already filled.
  SimTime extend();

  /// Whether the table holds every task of `trace` under `cost` and
  /// `local`: the same trace object and size, the same ns_per_work and
  /// spawn_ns, the same local policy.
  bool built_for(const apps::TaskTrace& trace, const sim::CostModel& cost,
                 LocalPolicy local) const;
};

}  // namespace rips::core
