#include "coll/collectives.hpp"

#include <deque>

#include "obs/telemetry.hpp"
#include "util/check.hpp"

namespace rips::coll {

Collectives::Collectives(const topo::Topology& topo)
    : topo_(topo), ecc_cache_(static_cast<size_t>(topo.size()), -1) {}

i32 Collectives::eccentricity(NodeId root) const {
  RIPS_CHECK(root >= 0 && root < topo_.size());
  i32& cached = ecc_cache_[static_cast<size_t>(root)];
  if (cached >= 0) return cached;

  const i32 n = topo_.size();
  std::vector<i32> dist(static_cast<size_t>(n), -1);
  std::deque<NodeId> queue;
  dist[static_cast<size_t>(root)] = 0;
  queue.push_back(root);
  i32 ecc = 0;
  std::vector<NodeId> nbr;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    ecc = std::max(ecc, dist[static_cast<size_t>(u)]);
    nbr.clear();
    topo_.append_neighbors(u, nbr);
    for (NodeId v : nbr) {
      if (dist[static_cast<size_t>(v)] < 0) {
        dist[static_cast<size_t>(v)] = dist[static_cast<size_t>(u)] + 1;
        queue.push_back(v);
      }
    }
  }
  for (i32 v = 0; v < n; ++v) {
    RIPS_CHECK_MSG(dist[static_cast<size_t>(v)] >= 0,
                   "topology must be connected");
  }
  cached = ecc;
  return ecc;
}

i64 Collectives::all_reduce(const std::vector<i64>& values,
                            const std::function<i64(i64, i64)>& combine,
                            Ledger& ledger) const {
  const i32 n = topo_.size();
  RIPS_CHECK(static_cast<i32>(values.size()) == n);
  std::vector<i64> current = values;
  std::vector<NodeId> nbr;
  i64 steps = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<i64> next = current;
    for (NodeId u = 0; u < n; ++u) {
      nbr.clear();
      topo_.append_neighbors(u, nbr);
      for (NodeId v : nbr) {
        const i64 combined = combine(next[static_cast<size_t>(u)],
                                     current[static_cast<size_t>(v)]);
        if (combined != next[static_cast<size_t>(u)]) {
          next[static_cast<size_t>(u)] = combined;
          changed = true;
        }
        ledger.messages += 1;
      }
    }
    if (changed) {
      ++steps;
      current = std::move(next);
      RIPS_CHECK_MSG(steps <= topo_.diameter() + 1,
                     "all_reduce failed to converge (combiner not monotone?)");
    }
  }
  ledger.comm_steps += steps;
  for (NodeId u = 1; u < n; ++u) {
    RIPS_CHECK(current[static_cast<size_t>(u)] == current[0]);
  }
  return current[0];
}

std::vector<i64> Collectives::broadcast(NodeId root, i64 value,
                                        Ledger& ledger) const {
  const i32 n = topo_.size();
  RIPS_CHECK(root >= 0 && root < n);
  std::vector<bool> has(static_cast<size_t>(n), false);
  has[static_cast<size_t>(root)] = true;
  i32 remaining = n - 1;
  i64 steps = 0;
  std::vector<NodeId> nbr;
  while (remaining > 0) {
    ++steps;
    RIPS_CHECK_MSG(steps <= topo_.diameter() + 1, "broadcast failed to cover");
    std::vector<bool> next = has;
    for (NodeId u = 0; u < n; ++u) {
      if (!has[static_cast<size_t>(u)]) continue;
      nbr.clear();
      topo_.append_neighbors(u, nbr);
      for (NodeId v : nbr) {
        ledger.messages += 1;
        if (!next[static_cast<size_t>(v)]) {
          next[static_cast<size_t>(v)] = true;
          --remaining;
        }
      }
    }
    has = std::move(next);
  }
  ledger.comm_steps += steps;
  return std::vector<i64>(static_cast<size_t>(n), value);
}

i32 Collectives::tree_phase_faulty(NodeId root, bool upward,
                                   const MessageFault& fault, i32 max_retries,
                                   Ledger& ledger, FaultStats& stats) const {
  RIPS_CHECK(root >= 0 && root < topo_.size());
  RIPS_CHECK(max_retries >= 0);
  const i32 n = topo_.size();

  // Deterministic BFS spanning tree rooted at `root`.
  std::vector<NodeId> parent(static_cast<size_t>(n), kInvalidNode);
  std::vector<char> visited(static_cast<size_t>(n), 0);
  std::deque<NodeId> queue;
  visited[static_cast<size_t>(root)] = 1;
  queue.push_back(root);
  std::vector<NodeId> nbr;
  i32 depth = 0;
  std::vector<i32> level(static_cast<size_t>(n), 0);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    depth = std::max(depth, level[static_cast<size_t>(u)]);
    nbr.clear();
    topo_.append_neighbors(u, nbr);
    for (NodeId v : nbr) {
      if (visited[static_cast<size_t>(v)]) continue;
      visited[static_cast<size_t>(v)] = 1;
      parent[static_cast<size_t>(v)] = u;
      level[static_cast<size_t>(v)] = level[static_cast<size_t>(u)] + 1;
      queue.push_back(v);
    }
  }

  // Edges retransmit concurrently, so the phase is stretched by the worst
  // single edge, not by the sum; `crit` tracks that critical-path extra.
  i64 crit = 0;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId p = parent[static_cast<size_t>(v)];
    if (p == kInvalidNode) continue;  // root
    const NodeId from = upward ? v : p;
    const NodeId to = upward ? p : v;
    bool delivered = false;
    i64 attempt = 0;
    for (; attempt <= max_retries; ++attempt) {
      ledger.messages += 1;
      if (!fault(from, to, attempt)) {
        delivered = true;
        break;
      }
      stats.dropped += 1;
    }
    if (delivered) {
      stats.retries += attempt;
      crit = std::max(crit, attempt);
      if (attempt > 0) stats.retry_log.push_back({from, to, attempt, true});
    } else {
      stats.retries += max_retries;
      crit = std::max<i64>(crit, max_retries + 1);
      // Heartbeat semantics: the unresponsive peer (the non-root endpoint
      // of the edge) is declared suspect and the phase completes without
      // its contribution.
      stats.suspected.push_back(v);
      stats.retry_log.push_back({from, to, max_retries, false});
      if (telemetry_ != nullptr) {
        obs::TelemetryEvent ev;
        ev.kind = obs::TelemetryEvent::Kind::kCollSuspect;
        ev.t = telemetry_t_;
        ev.node = v;
        ev.arg = max_retries;
        ev.detail = "silent peer suspected (collective rank)";
        telemetry_->publish(ev);
      }
    }
  }
  stats.timeouts += crit;
  const i32 steps = depth + static_cast<i32>(crit);
  ledger.comm_steps += steps;
  return steps;
}

i32 Collectives::ready_signal_steps_faulty(const MessageFault& fault,
                                           i32 max_retries, Ledger& ledger,
                                           FaultStats& stats) const {
  const i32 up = tree_phase_faulty(0, /*upward=*/true, fault, max_retries,
                                   ledger, stats);
  const i32 down = tree_phase_faulty(0, /*upward=*/false, fault, max_retries,
                                     ledger, stats);
  return up + down;
}

i32 Collectives::or_barrier_steps_faulty(NodeId initiator,
                                         const MessageFault& fault,
                                         i32 max_retries, Ledger& ledger,
                                         FaultStats& stats) const {
  const i32 down = tree_phase_faulty(initiator, /*upward=*/false, fault,
                                     max_retries, ledger, stats);
  const i32 up = tree_phase_faulty(initiator, /*upward=*/true, fault,
                                   max_retries, ledger, stats);
  return down + up;
}

std::vector<i64> mesh_row_scan(const topo::Mesh& mesh,
                               const std::vector<i64>& values,
                               Ledger& ledger) {
  RIPS_CHECK(static_cast<i32>(values.size()) == mesh.size());
  std::vector<i64> out(values.size());
  for (i32 i = 0; i < mesh.rows(); ++i) {
    i64 prefix = 0;
    for (i32 j = 0; j < mesh.cols(); ++j) {
      prefix += values[static_cast<size_t>(mesh.at(i, j))];
      out[static_cast<size_t>(mesh.at(i, j))] = prefix;
      if (j > 0) ledger.messages += 1;
    }
  }
  // All rows scan concurrently; the pipeline needs cols-1 steps.
  ledger.comm_steps += std::max(0, mesh.cols() - 1);
  return out;
}

std::vector<i64> mesh_col_scan(const topo::Mesh& mesh,
                               const std::vector<i64>& values,
                               Ledger& ledger) {
  RIPS_CHECK(static_cast<i32>(values.size()) == mesh.size());
  std::vector<i64> out(values.size());
  for (i32 j = 0; j < mesh.cols(); ++j) {
    i64 prefix = 0;
    for (i32 i = 0; i < mesh.rows(); ++i) {
      prefix += values[static_cast<size_t>(mesh.at(i, j))];
      out[static_cast<size_t>(mesh.at(i, j))] = prefix;
      if (i > 0) ledger.messages += 1;
    }
  }
  ledger.comm_steps += std::max(0, mesh.rows() - 1);
  return out;
}

}  // namespace rips::coll
