// Regression diffing (docs/OBSERVABILITY.md, "Bench diff").
//
// Compares two documents of one schema. `rips-bench-v1` documents
// (bench/harness --json output) are compared run by run on their Table-I
// columns; `rips-timeseries-v1` documents series by series on the
// steady-state bands each series carries, so a change that keeps the
// makespan but degrades phase-level behaviour (a growing imbalance tail,
// longer drains) still fails. The simulator is bit-deterministic, so a
// committed baseline (BENCH_core.json) diffs exactly against a fresh run
// on any machine: tolerances exist to absorb intentional tuning, not
// noise. CI uses bench/bench_diff as a gate — nonzero exit on any
// regression.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/timeseries.hpp"
#include "util/types.hpp"

namespace rips::obs::analysis {

/// One run row of a rips-bench-v1 document.
struct BenchRun {
  std::string workload;
  std::string group;
  std::string scheduler;
  std::string policy;
  i64 nodes = 0;
  i64 tasks = 0;
  double makespan_ns = 0;
  double sequential_ns = 0;
  double efficiency = 0;
  double speedup = 0;
  double overhead_s = 0;
  double idle_s = 0;
  i64 nonlocal_tasks = 0;
  i64 system_phases = 0;
  bool monitors_ok = true;
  /// Which drain-measuring pass the engine used: "drain-sum" | "full".
  std::string measure_pass;
  /// Jain fairness index over per-job progress rates — multi-job runs
  /// only. Negative when the run has no per-job rows, in which case diff()
  /// skips the fairness gate.
  double fairness = -1.0;
  /// Histogram tails from the run's embedded metrics registry:
  /// name -> {p50, p95, p99}.
  std::vector<std::pair<std::string, std::array<i64, 3>>> hist_pcts;

  /// Identity of the configuration the run measures.
  std::string key() const;
};

struct BenchDoc {
  std::string suite;
  bool quick = false;
  i64 nodes = 0;
  std::vector<BenchRun> runs;
};

/// Parses and validates a rips-bench-v1 document: every member the schema
/// requires, with its type and range (docs/OBSERVABILITY.md). nullopt +
/// `error` naming the first broken rule otherwise.
std::optional<BenchDoc> load_bench_doc(std::string_view text,
                                       std::string* error = nullptr);

/// Reads and parses `path`; nullopt + `error` on I/O or schema failure.
std::optional<BenchDoc> load_bench_file(const std::string& path,
                                        std::string* error = nullptr);

/// One series of a rips-timeseries-v1 document: its header, the samples
/// and events it retained, and its bands. The gate compares the writer's
/// own bands instead of re-deriving them from the samples, so it sees
/// exactly what the document claims. Move-only: the events' `detail`
/// pointers point into `detail_storage`.
struct Series {
  std::string label;
  std::string engine;
  i64 nodes = 0;
  u64 tasks = 0;
  bool complete = false;
  u64 seen = 0;  ///< samples offered to the writer (>= samples.size())
  std::vector<PhaseSample> samples;
  std::vector<TelemetryEvent> events;
  /// Owned backing store for the events' `detail` strings
  /// (TelemetryEvent carries a const char* by design).
  std::vector<std::string> detail_storage;
  std::vector<std::pair<std::string, SeriesBand>> bands;

  Series() = default;
  Series(Series&&) = default;
  Series& operator=(Series&&) = default;
  Series(const Series&) = delete;
  Series& operator=(const Series&) = delete;

  const SeriesBand* find(std::string_view field) const;
};

struct TimeSeriesDoc {
  /// What triggered a flight-recorder dump ("fault", "signal:SIGABRT",
  /// ...); empty for a document that is not a dump.
  std::string reason;
  std::vector<Series> series;
};

/// Parses a rips-timeseries-v1 document; nullopt + `error` on schema
/// mismatch.
std::optional<TimeSeriesDoc> load_timeseries_doc(std::string_view text,
                                                 std::string* error = nullptr);
std::optional<TimeSeriesDoc> load_timeseries_file(const std::string& path,
                                                  std::string* error = nullptr);

/// The `schema` string of the JSON document at `path`; empty when the file
/// cannot be read or parsed or names no schema.
std::string file_schema(const std::string& path);

/// Regression thresholds, all relative to the baseline value. The overhead
/// gate only fires above an absolute floor so microsecond-scale overheads
/// cannot trip the factor test.
struct DiffOptions {
  double makespan_rel_tol = 0.10;    ///< >10% slower makespan = regression
  double overhead_factor = 2.0;      ///< >2x overhead = regression
  double overhead_abs_floor_s = 1e-4;  ///< ignore overhead deltas below this
  double efficiency_abs_tol = 0.05;  ///< >5pp efficiency drop = regression
  /// Histogram p95/p99 growth gate. Power-of-two buckets quantize the
  /// derived percentiles to a 2x step, so 4.0 (two buckets) is the
  /// smallest factor that cannot fire on a single-bucket wobble.
  double percentile_factor = 4.0;
  /// Per-job fairness drop gate (absolute, index units). Only fires when
  /// both documents carry a fairness index for the run.
  double fairness_abs_tol = 0.10;
  /// Time-series band gates, multiplicative against the baseline band. A
  /// band summarizes tens of phases, not millions of tasks, so these are
  /// looser than the run gates above.
  double band_mean_factor = 1.5;  ///< >1.5x steady-state mean = regression
  double band_p95_factor = 2.0;   ///< >2x steady-state p95 tail = regression
  /// Bands whose baseline mean (p95) is below this skip the mean (p95)
  /// gate: a 0 -> 2 jump in a counter that is essentially zero is noise.
  double band_abs_floor = 4.0;
};

struct DiffEntry {
  std::string key;     ///< run identity (BenchRun::key()) or series label
  std::string metric;  ///< "makespan_ns", "overhead_s", "imbalance.p95", ...
  double baseline = 0;
  double current = 0;
  std::string note;
};

struct DiffResult {
  std::vector<DiffEntry> regressions;
  std::vector<DiffEntry> improvements;
  std::vector<std::string> missing;  ///< baseline keys absent from current
  std::vector<std::string> added;    ///< current runs absent from baseline

  /// The CI gate: no regressions and nothing missing.
  bool ok() const { return regressions.empty() && missing.empty(); }
};

DiffResult diff(const BenchDoc& baseline, const BenchDoc& current,
                const DiffOptions& opts = {});

/// The band gates: every baseline series is matched to the current series
/// of the same label, and each band's steady-state mean and p95 are
/// gated. Regressions are reported as metric "<field>.<mean|p95>".
DiffResult diff(const TimeSeriesDoc& baseline, const TimeSeriesDoc& current,
                const DiffOptions& opts = {});

/// Human-readable report, one line per finding plus a PASS/FAIL summary.
std::string report(const DiffResult& result);

}  // namespace rips::obs::analysis
