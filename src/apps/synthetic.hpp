// Parameterized synthetic irregular workload — used by unit tests and by
// the ablation benches to sweep task-structure properties (grain-size
// variance, spawn depth, branching) independently of any real application.
#pragma once

#include "apps/task_trace.hpp"
#include "util/types.hpp"

namespace rips::apps {

struct SyntheticConfig {
  i32 num_roots = 64;        ///< initial tasks (segment 0)
  i32 max_depth = 4;         ///< spawn tree depth limit
  double spawn_prob = 0.5;   ///< probability a task spawns children
  i32 max_branch = 4;        ///< children per spawning task: 1..max_branch
  u64 mean_work = 1000;      ///< mean task work
  /// Grain-size model: 0 = constant, 1 = uniform in [1, 2*mean],
  /// 2 = exponential(mean), 3 = bimodal (90% small, 10% 10x).
  i32 work_model = 2;
  i32 num_segments = 1;      ///< synchronization segments
};

/// `max_tasks` (0 = unbounded) stops generation as soon as the trace holds
/// more than `max_tasks` tasks: the returned trace then has exactly
/// `max_tasks + 1` tasks, so callers enforcing a per-job cap can detect
/// the overflow with a size check without ever materializing the full
/// (potentially astronomically large) forest.
TaskTrace build_synthetic_trace(const SyntheticConfig& config, u64 seed,
                                u64 max_tasks = 0);

/// The `scale` preset: an irregular million-task-class workload for the
/// scaling suite (`harness --suite=scale`, the CI scale-smoke test). Returns a
/// config whose expected trace size is close to `target_tasks` — a forest
/// of ~2500-task exponential-grain subtrees, so peak generation memory is
/// the trace itself plus one breadth-first spawn frontier (no per-segment
/// or per-root vectors). Deterministic for a fixed (target, seed).
SyntheticConfig scale_config(u64 target_tasks);

}  // namespace rips::apps
