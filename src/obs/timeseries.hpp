// TimeSeriesSampler — a TelemetryBus subscriber that records the per-phase
// sample stream and exports it as a `rips-timeseries-v1` document. One
// sampler records one run (one *series*); multi-run tools compose a
// document from several samplers with timeseries_doc_json(). It is the one
// container and writer of phase samples: the flight recorder
// (flight_recorder.hpp) is a sampler with a smaller ring and dump triggers.
//
// Memory is bounded: the sampler keeps the most recent `max_samples`
// samples and `max_events` events in rings that grow to their caps and
// then overwrite the oldest entry; `dropped()` counts overwritten samples.
// bench_diff compares two such documents value by value
// (obs/analysis/bench_diff.hpp).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace rips::obs {

/// The columns of a series' sample rows, in row order: the phase-kind
/// name, then the integer fields sample_values() returns.
inline constexpr const char* kSampleColumns[] = {
    "kind", "phase", "t0", "t1", "tasks", "moved", "imbalance",
    "comm_steps", "rts_total", "retries", "live_nodes", "drain_ns",
    "executed_total", "job"};
inline constexpr size_t kSampleValues = std::size(kSampleColumns) - 1;

/// The integer columns of one sample row (kSampleColumns after "kind").
/// Plain loads and stores only, so the signal-path dump may call it.
std::array<i64, kSampleValues> sample_values(const PhaseSample& s);
/// Inverse of sample_values(): the sample a row describes.
PhaseSample sample_from_values(PhaseKind kind,
                               const std::array<i64, kSampleValues>& v);

/// The most recent `cap` values of a stream: grows to the cap, then each
/// push overwrites the oldest. Index 0 is the oldest retained value.
/// Reading never allocates, so a signal handler may walk it.
template <typename T>
class RecentRing {
 public:
  explicit RecentRing(size_t cap) : cap_(cap) {}

  /// Appends `value`; returns true when a retained value was overwritten
  /// (or, at cap 0, `value` itself was dropped).
  bool push(const T& value) {
    if (buf_.size() < cap_) {
      buf_.push_back(value);
      return false;
    }
    if (cap_ != 0) {
      buf_[head_] = value;
      head_ = (head_ + 1) % cap_;
    }
    return true;
  }
  size_t size() const { return buf_.size(); }
  const T& operator[](size_t i) const {
    return buf_[(head_ + i) % buf_.size()];
  }
  /// Retained values, oldest first.
  std::vector<T> in_order() const {
    std::vector<T> out;
    out.reserve(buf_.size());
    for (size_t i = 0; i < buf_.size(); ++i) out.push_back((*this)[i]);
    return out;
  }

 private:
  std::vector<T> buf_;
  size_t cap_;
  size_t head_ = 0;  ///< slot of the oldest value once the ring is full
};

class TimeSeriesSampler : public TelemetrySubscriber {
 public:
  struct Options {
    /// Retained samples: the most recent ones; older ones bump dropped().
    size_t max_samples = 1u << 16;
    /// Retained events: the most recent ones.
    size_t max_events = 4096;
  };

  TimeSeriesSampler() : TimeSeriesSampler(Options{}) {}
  explicit TimeSeriesSampler(Options options);

  /// Series label, e.g. "fib-30/rips/n64". Set before or after the run.
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }

  // TelemetrySubscriber ---------------------------------------------------
  void on_run_begin(const RunStart& run) override;
  void on_phase(const PhaseSample& sample) override;
  /// Records one row per job (PhaseSample::job = j, tasks = executed[j]),
  /// each counted like a phase sample.
  void on_job_phase(const PhaseSample& sample,
                    std::span<const u64> executed) override;
  void on_event(const TelemetryEvent& event) override;
  void on_run_end(SimTime makespan_ns) override;

  // Recorded state --------------------------------------------------------
  /// Retained samples, oldest first.
  std::vector<PhaseSample> samples() const { return samples_.in_order(); }
  /// Retained events, oldest first.
  std::vector<TelemetryEvent> events() const { return events_.in_order(); }
  u64 seen() const { return seen_; }        ///< samples offered to the bus
  u64 dropped() const { return dropped_; }  ///< samples overwritten
  i32 num_nodes() const { return num_nodes_; }
  u64 num_tasks() const { return num_tasks_; }
  const char* engine() const { return engine_; }
  SimTime makespan_ns() const { return makespan_ns_; }
  bool run_complete() const { return run_complete_; }

  // Export ----------------------------------------------------------------
  /// One series object: {"label":...,"engine":...,"nodes":...,
  /// "samples":[...],"events":[...]}.
  std::string series_json() const;
  /// Complete single-series rips-timeseries-v1 document.
  std::string to_json() const;
  bool write_json(const std::string& path) const;

 protected:
  RecentRing<PhaseSample> samples_;
  RecentRing<TelemetryEvent> events_;

 private:
  std::string label_;
  const char* engine_ = "";
  i32 num_nodes_ = 0;
  u64 num_tasks_ = 0;
  SimTime makespan_ns_ = 0;
  bool run_complete_ = false;
  u64 seen_ = 0;
  u64 dropped_ = 0;
};

/// Composes one rips-timeseries-v1 document from several recorded runs:
/// {"schema":"rips-timeseries-v1","series":[...]}. Null samplers are
/// skipped.
std::string timeseries_doc_json(
    const std::vector<const TimeSeriesSampler*>& samplers);

}  // namespace rips::obs
