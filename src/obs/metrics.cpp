#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <fstream>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace rips::obs {

Histogram::Histogram(std::vector<i64> bounds) : bounds_(std::move(bounds)) {
  RIPS_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bound");
  RIPS_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                     std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                         bounds_.end(),
                 "histogram bounds must be strictly increasing");
  counts_.assign(bounds_.size() + 1, 0);
  // The engines' bucket layout (pow2_bounds: {0, 1, 2, 4, ..., 2^k}) admits
  // an O(1) bucket lookup via bit_width instead of the binary search — worth
  // it because the simulators observe per message / per phase.
  pow2_ = bounds_[0] == 0;
  for (size_t i = 1; pow2_ && i < bounds_.size(); ++i) {
    pow2_ = bounds_[i] == (i64{1} << (i - 1));
  }
}

std::vector<i64> pow2_bounds(i64 max_bound) {
  std::vector<i64> b{0};
  for (i64 v = 1; v <= max_bound; v *= 2) b.push_back(v);
  return b;
}

void Histogram::observe(i64 x) {
  size_t idx;
  if (pow2_) {
    // Bucket of x in {0, 1, 2, 4, ...}: 0 for x <= 0, else
    // bit_width(x - 1) + 1, saturated into the overflow bucket.
    idx = x <= 0 ? 0
                 : std::min(static_cast<size_t>(
                                std::bit_width(static_cast<u64>(x - 1)) + 1),
                            bounds_.size());
  } else {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
    idx = static_cast<size_t>(it - bounds_.begin());
  }
  counts_[idx] += 1;
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  count_ += 1;
  sum_ += x;
}

i64 Histogram::percentile(double q) const {
  if (count_ == 0) return 0;
  // !(q >= 0) rather than (q < 0): a NaN q fails every ordered comparison,
  // so the naive two-sided clamp would let it through into the rank
  // computation and produce a garbage cast.
  if (!(q >= 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based: ceil(q * count), at least 1.
  u64 target = static_cast<u64>(q * static_cast<double>(count_));
  if (static_cast<double>(target) < q * static_cast<double>(count_)) {
    target += 1;
  }
  if (target == 0) target = 1;
  u64 cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    cumulative += counts_[i];
    if (cumulative < target) continue;
    // Interpolate within the bucket holding the target rank. The bucket's
    // value range is (bounds[i-1], bounds[i]] intersected with the
    // observed [min, max] — so a distribution that lands entirely in one
    // bucket still spreads p50 < p95 < p99 across [min, max] instead of
    // reporting the bucket's upper edge for all three.
    const i64 lo = std::max(min_, i == 0 ? min_ : bounds_[i - 1] + 1);
    const i64 hi = std::min(max_, i < bounds_.size() ? bounds_[i] : max_);
    const u64 rank = target - (cumulative - counts_[i]);  // 1-based in bucket
    if (counts_[i] == 1 || hi <= lo) return hi;
    // Exact integer lerp: lo + (hi-lo) * (rank-1)/(count-1), 128-bit
    // intermediate so huge time ranges cannot overflow.
    const auto span = static_cast<unsigned __int128>(hi - lo);
    const auto num = span * (rank - 1);
    return lo + static_cast<i64>(num / (counts_[i] - 1));
  }
  return max_;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), u64{0});
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<i64> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(std::move(bounds))).first->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

void MetricsRegistry::reset() {
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
  snapshots_.clear();
  snapshots_dropped_ = 0;
}

void MetricsRegistry::snapshot(const std::string& label) {
  if (snapshots_.size() >= kMaxSnapshots) {
    snapshots_dropped_ += 1;
    return;
  }
  Snapshot snap;
  snap.label = label;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c.value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g.value());
  }
  snap.hists.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.hists.emplace_back(name,
                            std::array<i64, 3>{h.p50(), h.p95(), h.p99()});
  }
  snapshots_.push_back(std::move(snap));
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    out += "    " + json::quoted(name) + ": " + std::to_string(c.value());
    first = false;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    out += "    " + json::quoted(name) + ": " + std::to_string(g.value());
    first = false;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    out += "    " + json::quoted(name) + ": {\"bounds\": [";
    for (size_t i = 0; i < h.bounds().size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.bounds()[i]);
    }
    out += "], \"counts\": [";
    for (size_t i = 0; i < h.bucket_counts().size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.bucket_counts()[i]);
    }
    out += "], \"count\": " + std::to_string(h.count()) +
           ", \"sum\": " + std::to_string(h.sum()) +
           ", \"min\": " + std::to_string(h.min()) +
           ", \"max\": " + std::to_string(h.max()) +
           ", \"p50\": " + std::to_string(h.p50()) +
           ", \"p95\": " + std::to_string(h.p95()) +
           ", \"p99\": " + std::to_string(h.p99()) + "}";
    first = false;
  }
  out += "\n  },\n  \"snapshots\": [";
  first = true;
  for (const Snapshot& snap : snapshots_) {
    out += first ? "\n" : ",\n";
    out += "    {\"label\": " + json::quoted(snap.label) + ", \"counters\": {";
    bool f2 = true;
    for (const auto& [name, v] : snap.counters) {
      if (!f2) out += ", ";
      out += json::quoted(name) + ": " + std::to_string(v);
      f2 = false;
    }
    out += "}, \"gauges\": {";
    f2 = true;
    for (const auto& [name, v] : snap.gauges) {
      if (!f2) out += ", ";
      out += json::quoted(name) + ": " + std::to_string(v);
      f2 = false;
    }
    out += "}, \"hists\": {";
    f2 = true;
    for (const auto& [name, pct] : snap.hists) {
      if (!f2) out += ", ";
      out += json::quoted(name) + ": [" + std::to_string(pct[0]) + ", " +
             std::to_string(pct[1]) + ", " + std::to_string(pct[2]) + "]";
      f2 = false;
    }
    out += "}}";
    first = false;
  }
  out += "\n  ],\n  \"snapshots_dropped\": " +
         std::to_string(snapshots_dropped_) + "\n}\n";
  return out;
}

bool MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << to_json();
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace rips::obs
