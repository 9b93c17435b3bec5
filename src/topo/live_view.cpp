#include "topo/live_view.hpp"

#include <algorithm>
#include <limits>

namespace rips::topo {

LiveView::LiveView(const Topology& base, std::vector<NodeId> live)
    : live_(std::move(live)), base_name_(base.name()) {
  std::sort(live_.begin(), live_.end());
  live_.erase(std::unique(live_.begin(), live_.end()), live_.end());
  RIPS_CHECK_MSG(!live_.empty(), "LiveView needs at least one survivor");
  const i32 n = base.size();
  for (NodeId v : live_) RIPS_CHECK(v >= 0 && v < n);

  rank_of_.assign(static_cast<size_t>(n), kInvalidNode);
  for (size_t r = 0; r < live_.size(); ++r) {
    rank_of_[static_cast<size_t>(live_[r])] = static_cast<i32>(r);
  }

  // Relay adjacency: from every live node, walk the base graph through
  // dead nodes only; the first live node reached along any such path is a
  // LiveView neighbor. Each walk clears only the `seen` marks it set, so a
  // survivor with live neighbors costs its degree, not the machine size.
  adj_.assign(live_.size(), {});
  std::vector<char> seen(static_cast<size_t>(n));
  std::vector<NodeId> touched;
  std::vector<NodeId> frontier;
  std::vector<NodeId> nbr;
  for (size_t r = 0; r < live_.size(); ++r) {
    touched.assign(1, live_[r]);
    seen[static_cast<size_t>(live_[r])] = 1;
    frontier.assign(1, live_[r]);
    for (size_t head = 0; head < frontier.size(); ++head) {
      nbr.clear();
      base.append_neighbors(frontier[head], nbr);
      for (NodeId v : nbr) {
        if (seen[static_cast<size_t>(v)]) continue;
        seen[static_cast<size_t>(v)] = 1;
        touched.push_back(v);
        const i32 vr = rank_of_[static_cast<size_t>(v)];
        if (vr == kInvalidNode) {
          frontier.push_back(v);  // dead relay: keep walking
        } else if (vr != static_cast<i32>(r)) {
          adj_[r].push_back(vr);
        }
      }
    }
    for (NodeId v : touched) seen[static_cast<size_t>(v)] = 0;
    std::sort(adj_[r].begin(), adj_[r].end());
  }

  rows_.resize(live_.size());
}

std::string LiveView::name() const {
  return base_name_ + "-live" + std::to_string(live_.size());
}

void LiveView::append_neighbors(NodeId rank, std::vector<NodeId>& out) const {
  RIPS_CHECK(rank >= 0 && rank < size());
  const auto& a = adj_[static_cast<size_t>(rank)];
  out.insert(out.end(), a.begin(), a.end());
}

void LiveView::bfs(i32 rank, std::vector<i32>& row) const {
  row.assign(live_.size(), -1);
  std::vector<i32> queue{rank};
  row[static_cast<size_t>(rank)] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const i32 u = queue[head];
    for (NodeId v : adj_[static_cast<size_t>(u)]) {
      if (row[static_cast<size_t>(v)] < 0) {
        row[static_cast<size_t>(v)] = row[static_cast<size_t>(u)] + 1;
        queue.push_back(v);
      }
    }
  }
  RIPS_CHECK_MSG(queue.size() == live_.size(), "LiveView must stay connected");
}

i32 LiveView::distance(NodeId a, NodeId b) const {
  RIPS_CHECK(a >= 0 && a < size() && b >= 0 && b < size());
  std::vector<i32>& row = rows_[static_cast<size_t>(a)];
  if (row.empty()) bfs(a, row);
  return row[static_cast<size_t>(b)];
}

i32 LiveView::diameter() const {
  if (diameter_ >= 0) return diameter_;
  // Takes & Kosters' BoundingDiameters: every BFS from v bounds each
  // survivor's eccentricity, max(d, ecc(v) - d) <= ecc(w) <= ecc(v) + d
  // with d = d(v, w), so the diameter lies between the largest lower bound
  // and the largest upper bound. BFS sources alternate between the open
  // survivor with the largest upper bound and the one with the smallest
  // lower bound (lowest rank on ties) until the bounds meet, which a mesh
  // with few dead nodes reaches in a handful of BFS instead of one per
  // survivor. Each BFS closes its source, so the loop ends.
  const size_t n = live_.size();
  constexpr i32 kUnbounded = std::numeric_limits<i32>::max();
  std::vector<i32> lo(n, 0);
  std::vector<i32> hi(n, kUnbounded);
  std::vector<i32> row;
  i32 lower = 0;
  i32 upper = kUnbounded;
  for (bool widest = true; lower < upper; widest = !widest) {
    size_t v = n;
    for (size_t w = 0; w < n; ++w) {
      if (lo[w] == hi[w]) continue;  // eccentricity known
      if (v == n || (widest ? hi[w] > hi[v] : lo[w] < lo[v])) v = w;
    }
    bfs(static_cast<i32>(v), row);
    const i32 ecc = *std::max_element(row.begin(), row.end());
    upper = 0;
    for (size_t w = 0; w < n; ++w) {
      const i32 d = row[w];
      lo[w] = std::max({lo[w], d, ecc - d});
      hi[w] = std::min(hi[w], ecc + d);
      lower = std::max(lower, lo[w]);
      upper = std::max(upper, hi[w]);
    }
  }
  diameter_ = lower;
  return lower;
}

}  // namespace rips::topo
