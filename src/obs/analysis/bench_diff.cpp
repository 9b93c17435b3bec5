#include "obs/analysis/bench_diff.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/timeseries.hpp"

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

// --- document rules (docs/OBSERVABILITY.md) --------------------------------

/// The first rule a document breaks; the loaders report it.
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
/// "jobs" come together.
void check_jobs(const json::Value& run, const std::string& where) {
  const json::Value* fairness = run.find("fairness");
  const json::Value* jobs = run.find("jobs");
  require((fairness == nullptr) == (jobs == nullptr), where,
          "\"fairness\" and \"jobs\" must appear together");
  if (fairness == nullptr) return;
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
}

BenchRun load_run(const json::Value& rv, const std::string& where) {
  require(rv.is_object(), where, "must be an object");
  BenchRun r;
  r.workload = string_member(rv, "workload", where);
  r.group = string_member(rv, "group", where);
  r.scheduler = string_member(rv, "scheduler", where);
  r.policy = string_member(rv, "policy", where);
  member(rv, "monitors_ok", json::Value::Type::kBool, where);
  const std::string& measure_pass = string_member(rv, "measure_pass", where);
  require(measure_pass == "drain-sum" || measure_pass == "full", where,
          "measure_pass must be \"drain-sum\" or \"full\"");
  r.nodes = static_cast<i64>(count_member(rv, "nodes", where));
  require(r.nodes > 0, where, "nodes must be positive");
  count_member(rv, "tasks", where);
  require(static_cast<i64>(count_member(rv, "makespan_ns", where)) > 0, where,
          "makespan_ns must be positive");
  for (const char* key : {"sequential_ns", "nonlocal_tasks", "system_phases"}) {
    count_member(rv, key, where);
  }
  const double efficiency =
      member(rv, "efficiency", json::Value::Type::kNumber, where).number;
  require(efficiency > 0.0 && efficiency <= 1.5, where,
          "efficiency out of range (0, 1.5]");
  for (const char* key : {"speedup", "overhead_s", "idle_s"}) {
    count_member(rv, key, where);
  }
  check_jobs(rv, where);

  // The embedded registry: the run executed something, and every
  // histogram carries non-decreasing tails.
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
  }
  return r;
}

BenchDoc bench_doc(const json::Value& doc) {
  const std::string where = "document";
  string_member(doc, "suite", where);
  member(doc, "quick", json::Value::Type::kBool, where);
  member(doc, "nodes", json::Value::Type::kNumber, where);
  const json::Value& runs =
      member(doc, "runs", json::Value::Type::kArray, where);
  require(!runs.array.empty(), where, "runs must not be empty");
  BenchDoc out;
  for (size_t i = 0; i < runs.array.size(); ++i) {
    out.runs.push_back(
        load_run(runs.array[i], "runs[" + std::to_string(i) + "]"));
  }
  return out;
}

TimeSeriesDoc timeseries_doc(const json::Value& doc) {
  const json::Value* series = doc.find("series");
  require(series != nullptr && series->is_array(), "document",
          "missing series array");
  TimeSeriesDoc out;
  out.reason = str_field(doc, "reason");
  for (const json::Value& sv : series->array) {
    require(sv.is_object(), "series", "entry is not an object");
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
        require(row.is_array() &&
                    row.array.size() == std::size(kSampleColumns),
                s.label, "sample row does not match the columns");
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
        require(ev.is_object(), s.label, "event entry is not an object");
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
    out.series.push_back(std::move(s));
  }
  return out;
}

/// `text` parsed as a JSON object.
json::Value parse_object(std::string_view text) {
  std::string parse_err;
  std::optional<json::Value> doc = json::parse(text, &parse_err);
  if (!doc.has_value()) throw SchemaError{"invalid JSON: " + parse_err};
  require(doc->is_object(), "document", "not an object");
  return std::move(*doc);
}

/// `load` over `text`, which must name `schema`; nullopt + `error` on the
/// first broken rule.
template <class Doc>
std::optional<Doc> load_as(std::string_view text, const std::string& schema,
                           Doc (*load)(const json::Value&),
                           std::string* error) {
  try {
    const json::Value doc = parse_object(text);
    require(str_field(doc, "schema") == schema, "document",
            "schema is not " + schema);
    return load(doc);
  } catch (const SchemaError& e) {
    if (error != nullptr) *error = e.message;
    return std::nullopt;
  }
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

// --- exact diff -------------------------------------------------------------

/// `v` as the report prints it: scalars as JSON (numbers in their shortest
/// exact form), containers by size.
std::string show(const json::Value* v) {
  if (v == nullptr) return "(absent)";
  switch (v->type) {
    case json::Value::Type::kNull: return "null";
    case json::Value::Type::kBool: return v->boolean ? "true" : "false";
    case json::Value::Type::kNumber: {
      char buf[32];
      return std::string(buf,
                         std::to_chars(buf, buf + sizeof buf, v->number).ptr);
    }
    case json::Value::Type::kString: return json::quoted(v->string);
    case json::Value::Type::kArray:
      return "[" + std::to_string(v->array.size()) + " values]";
    case json::Value::Type::kObject:
      return "{" + std::to_string(v->object.size()) + " members}";
  }
  return "";
}

/// Appends every place `b` and `c` (either may be absent) differ under
/// `path`. `rows`: they hold a series' sample rows, whose elements are
/// named by kSampleColumns (`row`: they are one such row).
void compare(const json::Value* b, const json::Value* c,
             const std::string& path, std::vector<Difference>& out,
             bool rows = false, bool row = false) {
  if (b == nullptr || c == nullptr || b->type != c->type) {
    out.push_back({path, show(b), show(c)});
  } else if (b->is_object()) {
    // Members by name, the baseline's first; the keyed run (series) list
    // is indexed by identity.
    const bool keyed = path == "runs" || path == "series";
    const auto at = [&](const std::string& name) {
      return keyed ? path + "[" + name + "]"
                   : path.empty() ? name : path + "." + name;
    };
    for (const auto& [name, bv] : b->object) {
      compare(&bv, c->find(name), at(name), out, name == "samples");
    }
    for (const auto& [name, cv] : c->object) {
      if (b->find(name) == nullptr) compare(nullptr, &cv, at(name), out);
    }
  } else if (b->is_array()) {
    for (size_t i = 0; i < std::max(b->array.size(), c->array.size()); ++i) {
      compare(i < b->array.size() ? &b->array[i] : nullptr,
              i < c->array.size() ? &c->array[i] : nullptr,
              row && i < std::size(kSampleColumns)
                  ? path + "." + kSampleColumns[i]
                  : path + "[" + std::to_string(i) + "]",
              out, false, rows);
    }
  } else if (b->boolean != c->boolean || b->number != c->number ||
             b->string != c->string) {
    out.push_back({path, show(b), show(c)});
  }
}

}  // namespace

std::optional<BenchDoc> load_bench_doc(std::string_view text,
                                       std::string* error) {
  return load_as<BenchDoc>(text, "rips-bench-v1", &bench_doc, error);
}

std::optional<TimeSeriesDoc> load_timeseries_doc(std::string_view text,
                                                 std::string* error) {
  return load_as<TimeSeriesDoc>(text, "rips-timeseries-v1", &timeseries_doc,
                                error);
}

std::optional<TimeSeriesDoc> load_timeseries_file(const std::string& path,
                                                  std::string* error) {
  const std::optional<std::string> text = read_file(path, error);
  if (!text.has_value()) return std::nullopt;
  return load_timeseries_doc(*text, error);
}

std::optional<Document> load_document(std::string_view text,
                                      std::string* error) {
  try {
    Document out;
    out.root = parse_object(text);
    out.schema = str_field(out.root, "schema");
    std::vector<std::string> keys;
    if (out.schema == "rips-bench-v1") {
      for (const BenchRun& r : bench_doc(out.root).runs) {
        keys.push_back(r.key());
      }
    } else if (out.schema == "rips-timeseries-v1") {
      for (const Series& s : timeseries_doc(out.root).series) {
        keys.push_back(s.label);
      }
    } else {
      throw SchemaError{
          "schema is neither rips-bench-v1 nor rips-timeseries-v1"};
    }
    // Key the run (series) array by identity, so diff() matches elements
    // by key whatever their order.
    const std::string list =
        out.schema == "rips-bench-v1" ? "runs" : "series";
    json::Value& elements =
        std::find_if(out.root.object.begin(), out.root.object.end(),
                     [&](const auto& m) { return m.first == list; })
            ->second;
    json::Value keyed;
    keyed.type = json::Value::Type::kObject;
    std::map<std::string, int> seen;
    for (size_t i = 0; i < keys.size(); ++i) {
      const int n = ++seen[keys[i]];
      keyed.object.emplace_back(
          n > 1 ? keys[i] + "#" + std::to_string(n) : keys[i],
          std::move(elements.array[i]));
    }
    elements = std::move(keyed);
    return out;
  } catch (const SchemaError& e) {
    if (error != nullptr) *error = e.message;
    return std::nullopt;
  }
}

std::optional<Document> load_document_file(const std::string& path,
                                           std::string* error) {
  const std::optional<std::string> text = read_file(path, error);
  if (!text.has_value()) return std::nullopt;
  return load_document(*text, error);
}

std::vector<Difference> diff(const Document& baseline,
                             const Document& current) {
  std::vector<Difference> out;
  compare(&baseline.root, &current.root, "", out);
  return out;
}

std::string report(const std::vector<Difference>& differences) {
  std::string out;
  for (const Difference& d : differences) {
    out += "DIFF  " + d.where + "  " + d.baseline + " -> " + d.current + "\n";
  }
  out += "bench-diff: " + std::to_string(differences.size()) +
         " difference(s) — " + (differences.empty() ? "PASS" : "FAIL") + "\n";
  return out;
}

}  // namespace rips::obs::analysis
