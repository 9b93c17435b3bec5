// Metrics registry — named counters, gauges and fixed-bucket histograms
// with per-system-phase labeled snapshots.
//
// The engines own one registry each and count *into it* (cached Counter
// pointers, one add per increment — same cost as the ad-hoc struct fields
// it replaces); sim::RunMetrics is rebuilt from the registry at the end of
// a run (RunMetrics::load_counters), which keeps the Table-I view and the
// bit-reproducibility tests intact while everything else reads the
// registry. All values are integers and all iteration orders are sorted,
// so the registry is deterministic by construction.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace rips::obs {

/// Monotonic event count (or a monotonically accumulated quantity such as
/// nanoseconds of lost work).
class Counter {
 public:
  void add(u64 delta = 1) { value_ += delta; }
  u64 value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  u64 value_ = 0;
};

/// Last-written value (queue depth, live-node count, ...).
class Gauge {
 public:
  void set(i64 value) { value_ = value; }
  i64 value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  i64 value_ = 0;
};

/// Fixed-bucket histogram. Bucket i counts observations x with
/// x <= bounds[i] (and > bounds[i-1]); one implicit overflow bucket counts
/// x > bounds.back(). Bounds are set at creation and never change.
class Histogram {
 public:
  explicit Histogram(std::vector<i64> bounds);

  void observe(i64 x);

  u64 count() const { return count_; }
  i64 sum() const { return sum_; }
  i64 min() const { return count_ == 0 ? 0 : min_; }
  i64 max() const { return count_ == 0 ? 0 : max_; }

  /// Deterministic integer percentile estimate for q in [0, 1]: linear
  /// interpolation (by rank, assuming uniform spread) inside the bucket
  /// holding the ceil(q * count)-th observation, over the bucket's value
  /// range intersected with the observed [min, max] (so the overflow
  /// bucket interpolates up to max, not infinity, and a single-bucket
  /// distribution reports p50 < p95 < p99 rather than the bucket's upper
  /// edge for all three). Single-observation buckets report the bucket's
  /// clamped upper edge. Resolution is the bucket width — with the pow2
  /// bounds the engines use, a reported p95 is within 2x of the true one.
  /// 0 when empty.
  i64 percentile(double q) const;
  i64 p50() const { return percentile(0.50); }
  i64 p95() const { return percentile(0.95); }
  i64 p99() const { return percentile(0.99); }
  const std::vector<i64>& bounds() const { return bounds_; }
  /// size() == bounds().size() + 1; the last entry is the overflow bucket.
  const std::vector<u64>& bucket_counts() const { return counts_; }

  void reset();

 private:
  std::vector<i64> bounds_;
  std::vector<u64> counts_;
  u64 count_ = 0;
  i64 sum_ = 0;
  i64 min_ = 0;
  i64 max_ = 0;
  bool pow2_ = false;  // bounds are {0, 1, 2, 4, ...}: O(1) bucket lookup
};

/// The engines' bucket layout {0, 1, 2, 4, ..., 2^k <= max_bound}: coarse
/// enough for Histogram's O(1) bucket lookup, fine enough to separate
/// "balanced" from "skewed".
std::vector<i64> pow2_bounds(i64 max_bound);

class MetricsRegistry {
 public:
  /// Get-or-create. References stay valid for the registry's lifetime
  /// (node-based map storage) — engines cache them across a run.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` must be strictly increasing; ignored (the existing bounds
  /// win) when the histogram already exists.
  Histogram& histogram(const std::string& name, std::vector<i64> bounds);

  const Counter* find_counter(const std::string& name) const;

  /// Zeroes every instrument and drops all snapshots. Instruments stay
  /// registered so cached references survive across runs.
  void reset();

  /// A labeled copy of all scalar instruments — the engines snapshot once
  /// per system phase so load quality can be read *over time*, which is
  /// the per-phase narrative of the paper's Section 4.
  struct Snapshot {
    std::string label;
    std::vector<std::pair<std::string, u64>> counters;
    std::vector<std::pair<std::string, i64>> gauges;
    /// Per-histogram {p50, p95, p99} at snapshot time — the in-flight
    /// distribution view (the totals in the histogram section are
    /// end-of-run).
    std::vector<std::pair<std::string, std::array<i64, 3>>> hists;
  };

  /// Snapshots a registry keeps; later ones are only counted.
  static constexpr size_t kMaxSnapshots = 256;

  /// Records a snapshot unless the cap was reached (then it only counts
  /// the overflow — long runs keep the first kMaxSnapshots phases).
  void snapshot(const std::string& label);
  const std::vector<Snapshot>& snapshots() const { return snapshots_; }
  u64 snapshots_dropped() const { return snapshots_dropped_; }

  /// Stable JSON: {"counters":{...},"gauges":{...},"histograms":{...},
  /// "snapshots":[...]} with keys in sorted order.
  std::string to_json() const;
  bool write_json(const std::string& path) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::vector<Snapshot> snapshots_;
  u64 snapshots_dropped_ = 0;
};

}  // namespace rips::obs
