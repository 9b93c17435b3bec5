// TimeSeriesSampler — a TelemetryBus subscriber that records the per-phase
// sample stream and exports it as a `rips-timeseries-v1` document (JSON or
// CSV). One sampler records one run (one *series*); multi-run tools
// compose a document from several samplers with timeseries_doc_json().
//
// The steady-state view is the point: the paper's incremental-scheduling
// argument is about behaviour *over many phases*, so the sampler also
// derives per-metric bands (mean/min/max/p50/p95 over the steady-state
// window — the second half of the run's phases, where warm-up transients
// have died out). bench_diff gates those bands the same way it gates
// Table-I columns (obs/analysis/bench_diff.hpp).
#pragma once

#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace rips::obs {

/// Summary statistics of one metric over a sample window.
struct SeriesBand {
  u64 count = 0;
  double mean = 0.0;
  i64 min = 0;
  i64 max = 0;
  i64 p50 = 0;
  i64 p95 = 0;
};

class TimeSeriesSampler final : public TelemetrySubscriber {
 public:
  struct Options {
    /// Record every `stride`-th phase sample (events are always kept).
    u64 stride = 1;
    /// Hard cap on retained samples; later samples only bump dropped().
    size_t max_samples = 1u << 16;
    /// Hard cap on retained events.
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
  const std::vector<PhaseSample>& samples() const { return samples_; }
  const std::vector<TelemetryEvent>& events() const { return events_; }
  u64 seen() const { return seen_; }        ///< samples offered to the bus
  u64 dropped() const { return dropped_; }  ///< samples lost to stride/cap
  i32 num_nodes() const { return num_nodes_; }
  u64 num_tasks() const { return num_tasks_; }
  const char* engine() const { return engine_; }
  SimTime makespan_ns() const { return makespan_ns_; }
  bool run_complete() const { return run_complete_; }

  /// Forget everything (including the label) — fresh-run state.
  void clear();

  // Steady-state bands ----------------------------------------------------
  /// Band of one sample field over the steady-state window: the second
  /// half of the field's samples (all of them when fewer than 8 exist).
  /// "retries" and "drain_ns" are read from user-phase samples (not the
  /// per-job rows), every other field from system-phase samples; a series
  /// with no sample of that kind uses all of its samples. `field` is a
  /// column name from to_csv(): "imbalance", "moved", "tasks",
  /// "rts_total", "retries", "drain_ns", "duration_ns". Unknown fields
  /// return an empty band.
  SeriesBand steady_band(const std::string& field) const;

  // Export ----------------------------------------------------------------
  /// One series object: {"label":...,"engine":...,"nodes":...,
  /// "samples":[...],"events":[...],"bands":{...}}.
  std::string series_json() const;
  /// Complete single-series rips-timeseries-v1 document.
  std::string to_json() const;
  /// CSV, one row per sample, `label` as the leading column.
  std::string to_csv() const;
  bool write_json(const std::string& path) const;
  bool write_csv(const std::string& path) const;

 private:
  Options options_;
  std::string label_;
  const char* engine_ = "";
  i32 num_nodes_ = 0;
  u64 num_tasks_ = 0;
  SimTime makespan_ns_ = 0;
  bool run_complete_ = false;
  u64 seen_ = 0;
  u64 dropped_ = 0;
  std::vector<PhaseSample> samples_;
  std::vector<TelemetryEvent> events_;
};

/// Composes one rips-timeseries-v1 document from several recorded runs:
/// {"schema":"rips-timeseries-v1","series":[...]}. Null samplers are
/// skipped.
std::string timeseries_doc_json(
    const std::vector<const TimeSeriesSampler*>& samplers);

/// CSV for several runs: one header line, then every sampler's rows.
std::string timeseries_doc_csv(
    const std::vector<const TimeSeriesSampler*>& samplers);

/// The to_csv() header line (no trailing newline) — kept in one place so
/// tests and docs cannot drift from the writer.
const char* timeseries_csv_header();

}  // namespace rips::obs
