// Gradient model (Lin & Keller) — dynamic baseline #2.
//
// Every node maintains a *proximity*: its distance to the nearest lightly
// loaded node, computed from its neighbors' proximities (0 when the node
// itself is lightly loaded, capped at wmax = diameter + 1). Proximity
// changes propagate to neighbors by messages. Overloaded nodes push one
// task at a time downhill (to the neighbor with minimum proximity), so
// load "spreads slowly" hop by hop — the behaviour the paper criticizes:
// decent on the regular GROMOS workload, poor on irregular N-Queens, and
// high overhead from the constant information exchange.
#pragma once

#include <vector>

#include "balance/engine.hpp"
#include "balance/strategy.hpp"

namespace rips::balance {

class Gradient final : public Strategy {
 public:
  struct Params {
    i64 light_mark = 1;  ///< load <= light_mark => lightly loaded
    i64 high_mark = 2;   ///< load >= high_mark may emit tasks
  };

  Gradient() : params_{} {}
  explicit Gradient(Params params) : params_(params) {}

  std::string name() const override { return "gradient"; }
  void reset(DynamicEngine& engine) override;
  void on_spawn(DynamicEngine& engine, NodeId node, TaskId task) override;
  void on_message(DynamicEngine& engine, NodeId node,
                  const Message& msg) override;
  void on_load_change(DynamicEngine& engine, NodeId node) override;

 private:
  static constexpr i32 kProxUpdate = 1;
  static constexpr i32 kTaskPush = 2;

  void recompute_proximity(DynamicEngine& engine, NodeId node);
  void maybe_push(DynamicEngine& engine, NodeId node);

  Params params_;
  i32 wmax_ = 0;  ///< proximity cap: diameter + 1 (set by reset)
  bool pushing_ = false;  ///< re-entrancy guard: one push per trigger
  /// Hysteresis on the lightly-loaded state: a node turns light at
  /// load <= light_mark and heavy again only at load >= light_mark + 2,
  /// so a +-1 load oscillation does not flood neighbors with proximity
  /// updates.
  std::vector<bool> is_light_;
  std::vector<i32> proximity_;
  // nbr_proximity_[node] is indexed like topology().neighbors(node).
  std::vector<std::vector<i32>> nbr_proximity_;
  std::vector<std::vector<NodeId>> neighbors_;
};

}  // namespace rips::balance
