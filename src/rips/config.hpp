// RIPS policy configuration (Section 2 of the paper).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace rips::core {

/// Local transfer policy: what happens to newly generated tasks and when a
/// processor considers itself ready for the next system phase.
enum class LocalPolicy {
  kEager,  ///< two queues: new tasks enter RTS and must be scheduled first
  kLazy,   ///< one queue: new tasks enter RTE directly, may run unscheduled
};

/// Global transfer policy: when the machine switches to a system phase.
enum class GlobalPolicy {
  kAll,  ///< every processor drained its RTE (tree ready-signal protocol)
  kAny,  ///< first processor to drain broadcasts `init` (or-barrier style)
};

/// How the global condition is detected.
enum class DetectMode {
  kSignal,    ///< dedicated signal protocol (ready tree / init broadcast)
  kPeriodic,  ///< naive periodic global reduction (Section 2's strawman)
};

struct RipsConfig {
  LocalPolicy local = LocalPolicy::kLazy;
  GlobalPolicy global = GlobalPolicy::kAny;  // ANY-Lazy: the paper's best
  DetectMode detect = DetectMode::kSignal;
  SimTime periodic_interval_ns = 10'000'000;  ///< for DetectMode::kPeriodic
  /// Execute the newest task first (depth-first / stack order) instead of
  /// FIFO. LIFO keeps queues small (fewer tasks migrated per phase) but
  /// drains them constantly, triggering far more system phases; FIFO is
  /// the default and what bench/ablation_policies quantifies.
  bool lifo_execution = false;

  /// Balance task *work* instead of task *counts*. The paper's Section 3
  /// deliberately balances counts ("each task is presumed to require the
  /// equal execution time ... the inaccuracy due to the grain-size
  /// variation can be corrected in the next system phase"); this mode
  /// models the alternative where the runtime has perfect grain estimates:
  /// the scheduler sees per-node work totals and transfers are realized by
  /// moving tasks greedily up to the planned amount of work.
  /// bench/ablation_weighted quantifies what that estimation would buy.
  bool weighted = false;

  std::string name() const {
    std::string s = global == GlobalPolicy::kAll ? "ALL" : "ANY";
    s += local == LocalPolicy::kEager ? "-Eager" : "-Lazy";
    if (detect == DetectMode::kPeriodic) s += "(periodic)";
    return s;
  }
};

/// The `--policy` spelling of a configuration's global and local policies
/// ("any-lazy", "all-eager", ...), as the tools take it and as rips-bench-v1
/// rows record it. name() is the display form ("ANY-Lazy").
inline std::string policy_flag(const RipsConfig& config) {
  std::string s = config.global == GlobalPolicy::kAll ? "all" : "any";
  s += config.local == LocalPolicy::kEager ? "-eager" : "-lazy";
  return s;
}

/// Inverse of policy_flag: the default configuration with the policies
/// `flag` names, or nullopt when `flag` is not {any,all}-{lazy,eager}.
inline std::optional<RipsConfig> parse_policy(std::string_view flag) {
  for (const GlobalPolicy global : {GlobalPolicy::kAny, GlobalPolicy::kAll}) {
    for (const LocalPolicy local : {LocalPolicy::kLazy, LocalPolicy::kEager}) {
      RipsConfig config;
      config.global = global;
      config.local = local;
      if (policy_flag(config) == flag) return config;
    }
  }
  return std::nullopt;
}

}  // namespace rips::core
