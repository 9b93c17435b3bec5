#include "obs/analysis/bench_diff.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/json.hpp"

namespace rips::obs::analysis {

std::string BenchRun::key() const {
  return workload + "|" + group + "|" + scheduler + "|" + policy + "|n" +
         std::to_string(nodes);
}

namespace {

double num_field(const json::Value& obj, std::string_view key,
                 double fallback = 0) {
  const json::Value* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::string str_field(const json::Value& obj, std::string_view key) {
  const json::Value* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->string : "";
}

PhaseKind parse_phase_kind(const std::string& name) {
  if (name == "user") return PhaseKind::kUser;
  if (name == "segment") return PhaseKind::kSegment;
  return PhaseKind::kSystem;
}

TelemetryEvent::Kind parse_event_kind(const std::string& name) {
  if (name == "recovery") return TelemetryEvent::Kind::kRecovery;
  if (name == "monitor_violation") {
    return TelemetryEvent::Kind::kMonitorViolation;
  }
  if (name == "coll_suspect") return TelemetryEvent::Kind::kCollSuspect;
  return TelemetryEvent::Kind::kCrash;
}

// --- rips-bench-v1 rules (docs/OBSERVABILITY.md) --------------------------

/// The first rule a bench document breaks; load_bench_doc reports it.
struct SchemaError {
  std::string message;
};

void require(bool ok, const std::string& where, const std::string& what) {
  if (!ok) throw SchemaError{where + ": " + what};
}

/// Member `key` of object `obj`, which must be present with type `type`.
const json::Value& member(const json::Value& obj, const std::string& key,
                          json::Value::Type type, const std::string& where) {
  const json::Value* v = obj.find(key);
  require(v != nullptr, where, "missing \"" + key + "\"");
  require(v->type == type, where, "\"" + key + "\" has the wrong type");
  return *v;
}

const std::string& string_member(const json::Value& obj,
                                 const std::string& key,
                                 const std::string& where) {
  return member(obj, key, json::Value::Type::kString, where).string;
}

/// A number member that must not be negative.
double count_member(const json::Value& obj, const std::string& key,
                    const std::string& where) {
  const double v = member(obj, key, json::Value::Type::kNumber, where).number;
  require(v >= 0, where, "\"" + key + "\" < 0");
  return v;
}

constexpr const char* kPct[3] = {"p50", "p95", "p99"};

/// Per-job rows are optional (multi-job runs only), but "fairness" and
/// "jobs" come together. Returns the fairness index, -1 without rows.
double load_fairness(const json::Value& run, const std::string& where) {
  const json::Value* fairness = run.find("fairness");
  const json::Value* jobs = run.find("jobs");
  require((fairness == nullptr) == (jobs == nullptr), where,
          "\"fairness\" and \"jobs\" must appear together");
  if (fairness == nullptr) return -1.0;
  require(fairness->is_number() && fairness->number > 0.0 &&
              fairness->number <= 1.0,
          where, "fairness must be a number in (0, 1]");
  require(jobs->is_array() && jobs->array.size() >= 2, where,
          "jobs must be an array of at least two rows");
  for (size_t j = 0; j < jobs->array.size(); ++j) {
    const std::string jwhere = where + ".jobs[" + std::to_string(j) + "]";
    const json::Value& job = jobs->array[j];
    require(job.is_object(), jwhere, "must be an object");
    string_member(job, "name", jwhere);
    for (const char* key :
         {"nonlocal_tasks", "tasks_migrated", "work_ns", "completion_ns"}) {
      count_member(job, key, jwhere);
    }
    require(count_member(job, "tasks", jwhere) >= 1, jwhere,
            "tasks must be positive");
  }
  return fairness->number;
}

BenchRun load_run(const json::Value& rv, const std::string& where) {
  require(rv.is_object(), where, "must be an object");
  BenchRun r;
  r.workload = string_member(rv, "workload", where);
  r.group = string_member(rv, "group", where);
  r.scheduler = string_member(rv, "scheduler", where);
  r.policy = string_member(rv, "policy", where);
  r.monitors_ok =
      member(rv, "monitors_ok", json::Value::Type::kBool, where).boolean;
  r.measure_pass = string_member(rv, "measure_pass", where);
  require(r.measure_pass == "drain-sum" || r.measure_pass == "full", where,
          "measure_pass must be \"drain-sum\" or \"full\"");
  r.nodes = static_cast<i64>(count_member(rv, "nodes", where));
  require(r.nodes > 0, where, "nodes must be positive");
  r.tasks = static_cast<i64>(count_member(rv, "tasks", where));
  r.makespan_ns = count_member(rv, "makespan_ns", where);
  require(static_cast<i64>(r.makespan_ns) > 0, where,
          "makespan_ns must be positive");
  r.sequential_ns = count_member(rv, "sequential_ns", where);
  r.nonlocal_tasks =
      static_cast<i64>(count_member(rv, "nonlocal_tasks", where));
  r.system_phases = static_cast<i64>(count_member(rv, "system_phases", where));
  r.efficiency =
      member(rv, "efficiency", json::Value::Type::kNumber, where).number;
  require(r.efficiency > 0.0 && r.efficiency <= 1.5, where,
          "efficiency out of range (0, 1.5]");
  r.speedup = count_member(rv, "speedup", where);
  r.overhead_s = count_member(rv, "overhead_s", where);
  r.idle_s = count_member(rv, "idle_s", where);
  r.fairness = load_fairness(rv, where);

  // The embedded registry: the run executed something, and every
  // histogram carries non-decreasing tails for the percentile gate.
  const json::Value& metrics =
      member(rv, "metrics", json::Value::Type::kObject, where);
  const std::string mwhere = where + ".metrics";
  const json::Value* executed =
      member(metrics, "counters", json::Value::Type::kObject, mwhere)
          .find("tasks.executed");
  require(executed != nullptr && executed->is_number() &&
              executed->as_i64() > 0,
          where, "metrics.counters[\"tasks.executed\"] must be > 0");
  for (const auto& [name, h] :
       member(metrics, "histograms", json::Value::Type::kObject, mwhere)
           .object) {
    const std::string hwhere = mwhere + ".histograms." + name;
    require(h.is_object(), hwhere, "must be an object");
    std::array<i64, 3> pct{};
    for (size_t i = 0; i < pct.size(); ++i) {
      pct[i] = member(h, kPct[i], json::Value::Type::kNumber, hwhere).as_i64();
    }
    require(pct[0] <= pct[1] && pct[1] <= pct[2], hwhere,
            "percentiles must be non-decreasing");
    r.hist_pcts.emplace_back(name, pct);
  }
  return r;
}

std::optional<std::string> read_file(const std::string& path,
                                     std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

std::optional<BenchDoc> load_bench_doc(std::string_view text,
                                       std::string* error) {
  const auto fail = [&](const std::string& msg) -> std::optional<BenchDoc> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  std::string parse_err;
  const std::optional<json::Value> doc = json::parse(text, &parse_err);
  if (!doc.has_value()) return fail("invalid JSON: " + parse_err);
  if (!doc->is_object()) return fail("bench document is not an object");
  const json::Value* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "rips-bench-v1") {
    return fail("schema is not rips-bench-v1");
  }
  try {
    const std::string where = "document";
    BenchDoc out;
    out.suite = string_member(*doc, "suite", where);
    out.quick = member(*doc, "quick", json::Value::Type::kBool, where).boolean;
    out.nodes = member(*doc, "nodes", json::Value::Type::kNumber, where)
                    .as_i64();
    const json::Value& runs =
        member(*doc, "runs", json::Value::Type::kArray, where);
    require(!runs.array.empty(), where, "runs must not be empty");
    for (size_t i = 0; i < runs.array.size(); ++i) {
      out.runs.push_back(
          load_run(runs.array[i], "runs[" + std::to_string(i) + "]"));
    }
    return out;
  } catch (const SchemaError& e) {
    return fail(e.message);
  }
}

std::optional<BenchDoc> load_bench_file(const std::string& path,
                                        std::string* error) {
  const std::optional<std::string> text = read_file(path, error);
  if (!text.has_value()) return std::nullopt;
  return load_bench_doc(*text, error);
}

const SeriesBand* Series::find(std::string_view field) const {
  for (const auto& [name, band] : bands) {
    if (name == field) return &band;
  }
  return nullptr;
}

std::optional<TimeSeriesDoc> load_timeseries_doc(std::string_view text,
                                                 std::string* error) {
  const auto fail = [&](const std::string& msg) -> std::optional<TimeSeriesDoc> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  std::string parse_err;
  const std::optional<json::Value> doc = json::parse(text, &parse_err);
  if (!doc.has_value()) return fail("invalid JSON: " + parse_err);
  if (!doc->is_object()) return fail("time-series document is not an object");
  const json::Value* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "rips-timeseries-v1") {
    return fail("schema is not rips-timeseries-v1");
  }
  const json::Value* series = doc->find("series");
  if (series == nullptr || !series->is_array()) {
    return fail("missing series array");
  }
  TimeSeriesDoc out;
  out.reason = str_field(*doc, "reason");
  for (const json::Value& sv : series->array) {
    if (!sv.is_object()) return fail("series entry is not an object");
    Series s;
    s.label = str_field(sv, "label");
    s.engine = str_field(sv, "engine");
    s.nodes = static_cast<i64>(num_field(sv, "nodes"));
    s.tasks = static_cast<u64>(num_field(sv, "tasks"));
    const json::Value* complete = sv.find("complete");
    s.complete = complete != nullptr && complete->boolean;
    s.seen = static_cast<u64>(num_field(sv, "seen"));

    // Rows follow kSampleColumns, the order both writers use.
    const json::Value* samples = sv.find("samples");
    if (samples != nullptr && samples->is_array()) {
      for (const json::Value& row : samples->array) {
        if (!row.is_array() ||
            row.array.size() != std::size(kSampleColumns)) {
          return fail("sample row does not match the columns");
        }
        std::array<i64, kSampleValues> values;
        for (size_t v = 0; v < kSampleValues; ++v) {
          values[v] = row.array[v + 1].as_i64();
        }
        s.samples.push_back(sample_from_values(
            parse_phase_kind(row.array[0].string), values));
      }
    }
    const json::Value* events = sv.find("events");
    if (events != nullptr && events->is_array()) {
      // Reserve first: TelemetryEvent::detail points into detail_storage,
      // so the storage must never reallocate after pointers are taken.
      s.detail_storage.reserve(events->array.size());
      for (const json::Value& ev : events->array) {
        if (!ev.is_object()) return fail("event entry is not an object");
        TelemetryEvent e;
        e.kind = parse_event_kind(str_field(ev, "kind"));
        e.t = static_cast<SimTime>(num_field(ev, "t"));
        e.node = static_cast<NodeId>(num_field(ev, "node", kInvalidNode));
        e.phase = static_cast<u64>(num_field(ev, "phase"));
        e.arg = static_cast<i64>(num_field(ev, "arg"));
        s.detail_storage.push_back(str_field(ev, "detail"));
        e.detail = s.detail_storage.back().c_str();
        s.events.push_back(e);
      }
    }
    const json::Value* bands = sv.find("bands");
    if (bands != nullptr && bands->is_object()) {
      for (const auto& [field, bv] : bands->object) {
        if (!bv.is_object()) continue;
        SeriesBand band;
        band.count =
            static_cast<u64>(static_cast<i64>(num_field(bv, "count")));
        band.mean = num_field(bv, "mean");
        band.min = static_cast<i64>(num_field(bv, "min"));
        band.max = static_cast<i64>(num_field(bv, "max"));
        band.p50 = static_cast<i64>(num_field(bv, "p50"));
        band.p95 = static_cast<i64>(num_field(bv, "p95"));
        s.bands.emplace_back(field, band);
      }
    }
    out.series.push_back(std::move(s));
  }
  return out;
}

std::optional<TimeSeriesDoc> load_timeseries_file(const std::string& path,
                                                  std::string* error) {
  const std::optional<std::string> text = read_file(path, error);
  if (!text.has_value()) return std::nullopt;
  return load_timeseries_doc(*text, error);
}

std::string file_schema(const std::string& path) {
  const std::optional<std::string> text = read_file(path, nullptr);
  const std::optional<json::Value> doc =
      text.has_value() ? json::parse(*text) : std::nullopt;
  const json::Value* schema =
      doc.has_value() && doc->is_object() ? doc->find("schema") : nullptr;
  return schema != nullptr && schema->is_string() ? schema->string : "";
}

DiffResult diff(const BenchDoc& baseline, const BenchDoc& current,
                const DiffOptions& opts) {
  DiffResult out;
  std::map<std::string, const BenchRun*> cur;
  for (const BenchRun& r : current.runs) cur.emplace(r.key(), &r);
  std::map<std::string, const BenchRun*> base;
  for (const BenchRun& r : baseline.runs) base.emplace(r.key(), &r);
  for (const auto& [key, r] : cur) {
    if (base.find(key) == base.end()) out.added.push_back(key);
  }

  for (const auto& [key, b] : base) {
    const auto it = cur.find(key);
    if (it == cur.end()) {
      out.missing.push_back(key);
      continue;
    }
    const BenchRun& c = *it->second;

    // Makespan: symmetric relative tolerance.
    if (b->makespan_ns > 0) {
      const double rel = c.makespan_ns / b->makespan_ns - 1.0;
      if (rel > opts.makespan_rel_tol) {
        char note[64];
        std::snprintf(note, sizeof note, "+%.1f%% slower", rel * 100.0);
        out.regressions.push_back(
            {key, "makespan_ns", b->makespan_ns, c.makespan_ns, note});
      } else if (rel < -opts.makespan_rel_tol) {
        char note[64];
        std::snprintf(note, sizeof note, "%.1f%% faster", -rel * 100.0);
        out.improvements.push_back(
            {key, "makespan_ns", b->makespan_ns, c.makespan_ns, note});
      }
    }

    // Overhead: multiplicative gate with an absolute floor so tiny
    // overheads cannot trip the factor test.
    if (c.overhead_s > b->overhead_s * opts.overhead_factor &&
        c.overhead_s - b->overhead_s > opts.overhead_abs_floor_s) {
      char note[64];
      std::snprintf(note, sizeof note, "%.2fx overhead",
                    b->overhead_s > 0 ? c.overhead_s / b->overhead_s : 0.0);
      out.regressions.push_back(
          {key, "overhead_s", b->overhead_s, c.overhead_s, note});
    }

    // Efficiency: absolute drop in percentage points.
    if (b->efficiency - c.efficiency > opts.efficiency_abs_tol) {
      char note[64];
      std::snprintf(note, sizeof note, "-%.1fpp efficiency",
                    (b->efficiency - c.efficiency) * 100.0);
      out.regressions.push_back(
          {key, "efficiency", b->efficiency, c.efficiency, note});
    }

    // Invariant monitors flipping to failed is always a regression.
    if (b->monitors_ok && !c.monitors_ok) {
      out.regressions.push_back({key, "monitors_ok", 1, 0, "monitors failed"});
    }

    // Per-job fairness: a multi-job run starving one tenant shows up as a
    // drop in the Jain index. Skipped when either run has no per-job rows
    // (fairness < 0).
    if (b->fairness >= 0.0 && c.fairness >= 0.0 &&
        b->fairness - c.fairness > opts.fairness_abs_tol) {
      char note[64];
      std::snprintf(note, sizeof note, "-%.2f fairness index",
                    b->fairness - c.fairness);
      out.regressions.push_back(
          {key, "fairness", b->fairness, c.fairness, note});
    }

    // Histogram tails (p95/p99 only — p50 is covered transitively by the
    // makespan gate and too coarse to gate on its own). Multiplicative,
    // and skipped for histograms only one side has or whose baseline tail
    // is zero.
    for (const auto& [hname, bp] : b->hist_pcts) {
      const std::array<i64, 3>* cp = nullptr;
      for (const auto& [cname, cpct] : c.hist_pcts) {
        if (cname == hname) {
          cp = &cpct;
          break;
        }
      }
      if (cp == nullptr) continue;
      for (size_t pi = 1; pi < 3; ++pi) {
        if (bp[pi] <= 0) continue;
        const double factor = static_cast<double>((*cp)[pi]) /
                              static_cast<double>(bp[pi]);
        if (factor > opts.percentile_factor) {
          char note[96];
          std::snprintf(note, sizeof note, "%.1fx %s tail", factor, kPct[pi]);
          out.regressions.push_back({key, hname + "." + kPct[pi],
                                     static_cast<double>(bp[pi]),
                                     static_cast<double>((*cp)[pi]), note});
        }
      }
    }
  }
  return out;
}

DiffResult diff(const TimeSeriesDoc& baseline, const TimeSeriesDoc& current,
                const DiffOptions& opts) {
  DiffResult out;
  const auto gate = [&](const std::string& label, const std::string& field,
                        const char* stat, double b, double c, double factor) {
    if (b >= opts.band_abs_floor && c > b * factor) {
      char note[64];
      std::snprintf(note, sizeof note, "%.2fx steady %s", c / b, stat);
      out.regressions.push_back({label, field + "." + stat, b, c, note});
    }
  };
  for (const Series& b : baseline.series) {
    const Series* c = nullptr;
    for (const Series& s : current.series) {
      if (s.label == b.label) {
        c = &s;
        break;
      }
    }
    if (c == nullptr) {
      out.missing.push_back(b.label);
      continue;
    }
    for (const auto& [field, bb] : b.bands) {
      const SeriesBand* cb = c->find(field);
      if (cb == nullptr || bb.count == 0 || cb->count == 0) continue;
      gate(b.label, field, "mean", bb.mean, cb->mean, opts.band_mean_factor);
      gate(b.label, field, "p95", static_cast<double>(bb.p95),
           static_cast<double>(cb->p95), opts.band_p95_factor);
    }
  }
  return out;
}

std::string report(const DiffResult& result) {
  std::string out;
  char buf[256];
  for (const DiffEntry& e : result.regressions) {
    std::snprintf(buf, sizeof buf, "REGRESSION  %-12s %-50s %g -> %g (%s)\n",
                  e.metric.c_str(), e.key.c_str(), e.baseline, e.current,
                  e.note.c_str());
    out += buf;
  }
  for (const DiffEntry& e : result.improvements) {
    std::snprintf(buf, sizeof buf, "improvement %-12s %-50s %g -> %g (%s)\n",
                  e.metric.c_str(), e.key.c_str(), e.baseline, e.current,
                  e.note.c_str());
    out += buf;
  }
  for (const std::string& key : result.missing) {
    out += "MISSING     " + key + " (in baseline, not in current)\n";
  }
  for (const std::string& key : result.added) {
    out += "added       " + key + " (not in baseline)\n";
  }
  std::snprintf(buf, sizeof buf,
                "bench-diff: %zu regression(s), %zu missing, %zu "
                "improvement(s), %zu added — %s\n",
                result.regressions.size(), result.missing.size(),
                result.improvements.size(), result.added.size(),
                result.ok() ? "PASS" : "FAIL");
  out += buf;
  return out;
}

}  // namespace rips::obs::analysis
