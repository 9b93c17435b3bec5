#include "balance/rid.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace rips::balance {

void Rid::reset(DynamicEngine& engine) {
  const auto n = static_cast<size_t>(engine.topology().size());
  neighbors_.assign(n, {});
  nbr_load_.assign(n, {});
  last_broadcast_.assign(n, 0);
  outstanding_.assign(n, 0);
  blocked_.assign(n, {});
  for (size_t v = 0; v < n; ++v) {
    neighbors_[v] = engine.topology().neighbors(static_cast<NodeId>(v));
    nbr_load_[v].assign(neighbors_[v].size(), 0);
    blocked_[v].assign(neighbors_[v].size(), false);
  }
}

void Rid::on_spawn(DynamicEngine& engine, NodeId node, TaskId task) {
  engine.enqueue_local(node, task);
}

void Rid::maybe_broadcast_load(DynamicEngine& engine, NodeId node) {
  const auto v = static_cast<size_t>(node);
  const i64 load = engine.load_of(node);
  const i64 last = last_broadcast_[v];
  const double trigger =
      std::max(1.0, (1.0 - params_.u) * static_cast<double>(std::max<i64>(
                                            last, 1)));
  if (std::abs(static_cast<double>(load - last)) < trigger) return;
  last_broadcast_[v] = load;
  for (NodeId nbr : neighbors_[v]) {
    engine.send_message(node, nbr, kLoadUpdate, /*a=*/load);
  }
}

void Rid::maybe_request(DynamicEngine& engine, NodeId node) {
  const auto v = static_cast<size_t>(node);
  if (outstanding_[v] > 0) return;
  const i64 load = engine.load_of(node);
  if (load >= params_.l_low) return;

  // Neighborhood average from the last known neighbor loads.
  i64 sum = load;
  for (i64 l : nbr_load_[v]) sum += l;
  const double avg =
      static_cast<double>(sum) / static_cast<double>(nbr_load_[v].size() + 1);
  const double deficiency = avg - static_cast<double>(load);
  if (deficiency <= 0.0) return;

  double excess_total = 0.0;
  for (i64 l : nbr_load_[v]) {
    if (static_cast<double>(l) > avg) excess_total += static_cast<double>(l) - avg;
  }
  if (excess_total <= 0.0) return;

  for (size_t k = 0; k < neighbors_[v].size(); ++k) {
    if (blocked_[v][k]) continue;
    const double over = static_cast<double>(nbr_load_[v][k]) - avg;
    if (over <= 0.0) continue;
    const i64 amount = static_cast<i64>(
        std::ceil(deficiency * over / excess_total));
    if (amount <= 0) continue;
    outstanding_[v] += 1;
    engine.send_message(node, neighbors_[v][k], kRequest, /*a=*/amount);
  }
}

void Rid::on_message(DynamicEngine& engine, NodeId node, const Message& msg) {
  const auto v = static_cast<size_t>(node);
  if (msg.kind == kLoadUpdate) {
    for (size_t k = 0; k < neighbors_[v].size(); ++k) {
      if (neighbors_[v][k] == msg.from) {
        nbr_load_[v][k] = msg.a;
        blocked_[v][k] = false;  // fresh information unblocks requests
        break;
      }
    }
    maybe_request(engine, node);
    return;
  }
  if (msg.kind == kRequest) {
    // Grant up to the requested amount while keeping L_threshold for
    // ourselves; the reply always goes out so the requester unblocks, and
    // carries our post-grant load so the requester's view is refreshed
    // even when the grant is empty (otherwise stale optimism would make it
    // re-request forever).
    const i64 queued = engine.queued_of(node);
    const i64 grant =
        std::clamp<i64>(std::min(msg.a, queued - params_.l_threshold), 0,
                        queued);
    granting_ = true;
    engine.send_message(node, msg.from, kGrant, /*a=*/grant,
                        /*b=*/engine.load_of(node) - grant,
                        /*max_tasks=*/grant);
    granting_ = false;
    maybe_broadcast_load(engine, node);
    return;
  }
  if (msg.kind == kGrant) {
    outstanding_[v] = std::max(0, outstanding_[v] - 1);
    for (size_t k = 0; k < neighbors_[v].size(); ++k) {
      if (neighbors_[v][k] == msg.from) {
        if (msg.num_tasks == 0) {
          // The donor had nothing to spare: our view of it was stale.
          // Following Willebeek-LeMair & Reeves, load information travels
          // only in the periodic update messages, so we must not request
          // again until a fresh update arrives — this stale-information
          // failure mode is intrinsic to receiver-initiated schemes in
          // lightly loaded systems (and is why the paper's RID struggles
          // on IDA*).
          blocked_[v][k] = true;
        } else {
          nbr_load_[v][k] = msg.b;
        }
        break;
      }
    }
    maybe_broadcast_load(engine, node);
    if (outstanding_[v] == 0) maybe_request(engine, node);
    return;
  }
}

void Rid::on_idle(DynamicEngine& engine, NodeId node) {
  maybe_broadcast_load(engine, node);
  maybe_request(engine, node);
}

void Rid::on_load_change(DynamicEngine& engine, NodeId node) {
  if (granting_) return;
  maybe_broadcast_load(engine, node);
  maybe_request(engine, node);
}

}  // namespace rips::balance
