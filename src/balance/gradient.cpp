#include "balance/gradient.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rips::balance {

void Gradient::reset(DynamicEngine& engine) {
  const auto n = static_cast<size_t>(engine.topology().size());
  wmax_ = engine.topology().diameter() + 1;
  neighbors_.assign(n, {});
  nbr_proximity_.assign(n, {});
  // Everyone starts lightly loaded => proximity 0 everywhere, consistent.
  is_light_.assign(n, true);
  proximity_.assign(n, 0);
  for (size_t v = 0; v < n; ++v) {
    neighbors_[v] = engine.topology().neighbors(static_cast<NodeId>(v));
    nbr_proximity_[v].assign(neighbors_[v].size(), 0);
  }
}

void Gradient::on_spawn(DynamicEngine& engine, NodeId node, TaskId task) {
  // Tasks always enter locally; the pressure gradient moves them later.
  engine.enqueue_local(node, task);
}

void Gradient::recompute_proximity(DynamicEngine& engine, NodeId node) {
  const auto v = static_cast<size_t>(node);
  const i32 cap = wmax_;
  const i64 load = engine.load_of(node);
  if (load <= params_.light_mark) {
    is_light_[v] = true;
  } else if (load >= params_.light_mark + 2) {
    is_light_[v] = false;
  }
  i32 fresh;
  if (is_light_[v]) {
    fresh = 0;
  } else {
    i32 best = cap;
    for (i32 p : nbr_proximity_[v]) best = std::min(best, p);
    fresh = std::min(cap, best + 1);
  }
  if (fresh == proximity_[v]) return;
  proximity_[v] = fresh;
  for (NodeId nbr : neighbors_[v]) {
    engine.send_message(node, nbr, kProxUpdate, /*a=*/fresh);
  }
}

void Gradient::maybe_push(DynamicEngine& engine, NodeId node) {
  const auto v = static_cast<size_t>(node);
  // Sending a task re-enters on_load_change; emit at most one task per
  // external trigger so the load spreads one hop at a time (the defining
  // property — and weakness — of the gradient model).
  if (pushing_) return;
  if (engine.load_of(node) < params_.high_mark) return;
  // Downhill neighbor: minimum proximity, strictly below our own (so the
  // task keeps approaching a lightly loaded node and cannot ping-pong).
  i32 best = wmax_;
  size_t best_idx = neighbors_[v].size();
  for (size_t k = 0; k < neighbors_[v].size(); ++k) {
    if (nbr_proximity_[v][k] < best) {
      best = nbr_proximity_[v][k];
      best_idx = k;
    }
  }
  if (best_idx == neighbors_[v].size() || best >= proximity_[v]) return;
  if (best >= wmax_) return;  // no light node in sight
  pushing_ = true;
  engine.send_message(node, neighbors_[v][best_idx], kTaskPush, /*a=*/0,
                      /*b=*/0, /*max_tasks=*/1);
  pushing_ = false;
}

void Gradient::on_message(DynamicEngine& engine, NodeId node,
                          const Message& msg) {
  const auto v = static_cast<size_t>(node);
  if (msg.kind == kProxUpdate) {
    for (size_t k = 0; k < neighbors_[v].size(); ++k) {
      if (neighbors_[v][k] == msg.from) {
        nbr_proximity_[v][k] = static_cast<i32>(msg.a);
        break;
      }
    }
    recompute_proximity(engine, node);
    maybe_push(engine, node);
  } else if (msg.kind == kTaskPush) {
    // Task already enqueued by the engine; our load changed, so the
    // proximity and pressure checks run via on_load_change.
    recompute_proximity(engine, node);
    maybe_push(engine, node);
  }
}

void Gradient::on_load_change(DynamicEngine& engine, NodeId node) {
  recompute_proximity(engine, node);
  maybe_push(engine, node);
}

}  // namespace rips::balance
