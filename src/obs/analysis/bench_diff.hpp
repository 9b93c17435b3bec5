// Exact document diff (docs/OBSERVABILITY.md, "Bench diff").
//
// Loads two documents of one schema — `rips-bench-v1` (bench/harness
// --json, serve_soak, rips_served --bench-out) or `rips-timeseries-v1`
// (--timeseries-out exports and flight-recorder dumps) — validating each
// with its schema's loader, then compares them value by value over the
// whole file. The simulator is bit-deterministic, so a committed baseline
// equals a fresh run on any machine and any difference is a change: there
// is no tolerance to tune. CI uses bench/bench_diff as a gate — nonzero
// exit on any difference.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace rips::obs::analysis {

/// The identity of one run row of a rips-bench-v1 document.
struct BenchRun {
  std::string workload;
  std::string group;
  std::string scheduler;
  std::string policy;
  i64 nodes = 0;

  /// Identity of the configuration the run measures.
  std::string key() const;
};

struct BenchDoc {
  std::vector<BenchRun> runs;
};

/// Parses and validates a rips-bench-v1 document: every member the schema
/// requires, with its type and range (docs/OBSERVABILITY.md). nullopt +
/// `error` naming the first broken rule otherwise.
std::optional<BenchDoc> load_bench_doc(std::string_view text,
                                       std::string* error = nullptr);

/// One series of a rips-timeseries-v1 document: its header and the samples
/// and events it retained. Move-only: the events' `detail` pointers point
/// into `detail_storage`.
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

  Series() = default;
  Series(Series&&) = default;
  Series& operator=(Series&&) = default;
  Series(const Series&) = delete;
  Series& operator=(const Series&) = delete;
};

struct TimeSeriesDoc {
  /// What triggered a flight-recorder dump ("fault", "signal:SIGABRT",
  /// ...); empty for a document that is not a dump.
  std::string reason;
  std::vector<Series> series;
};

/// Parses a rips-timeseries-v1 document; nullopt + `error` on schema
/// mismatch. A series' `bands` member, which older writers emitted, is
/// ignored.
std::optional<TimeSeriesDoc> load_timeseries_doc(std::string_view text,
                                                 std::string* error = nullptr);
std::optional<TimeSeriesDoc> load_timeseries_file(const std::string& path,
                                                  std::string* error = nullptr);

/// A document bench_diff compares: the parsed JSON of a rips-bench-v1 or
/// rips-timeseries-v1 document its schema's loader accepted, with its
/// `runs` (`series`) array turned into an object keyed by each element's
/// identity: BenchRun::key() (the series label), "#2", "#3", ... appended
/// to a repeated one.
struct Document {
  std::string schema;
  json::Value root;
};

/// nullopt + `error` when the text is not JSON, names neither schema, or
/// breaks its schema.
std::optional<Document> load_document(std::string_view text,
                                      std::string* error = nullptr);
std::optional<Document> load_document_file(const std::string& path,
                                           std::string* error = nullptr);

/// One value that differs: where it is — its member path, a run or series
/// indexed by identity, e.g. "runs[q|g|s|p|n16].metrics.counters.msg.sent"
/// or "series[w/RIPS/n8].samples[3].imbalance" — and its value on each
/// side: a scalar as JSON, an array or object by its size, "(absent)"
/// where a side has none.
struct Difference {
  std::string where;
  std::string baseline;
  std::string current;
};

/// Compares two documents value by value: every member, each run or
/// series against the one with the same identity on the other side, and
/// every array element by position. A run, series, member or element
/// only one side has is one difference; so is each differing scalar.
std::vector<Difference> diff(const Document& baseline,
                             const Document& current);

/// Human-readable report: one line per difference, then a summary line
/// ending in PASS (no difference) or FAIL.
std::string report(const std::vector<Difference>& differences);

}  // namespace rips::obs::analysis
