#include "obs/analysis/blackbox.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"

namespace rips::obs::analysis {

namespace {

i64 num_field(const json::Value& obj, std::string_view key, i64 fallback = 0) {
  const json::Value* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_i64() : fallback;
}

std::string str_field(const json::Value& obj, std::string_view key) {
  const json::Value* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->string : "";
}

PhaseKind parse_kind(const std::string& name) {
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

}  // namespace

std::optional<BlackBoxDoc> load_blackbox_doc(std::string_view text,
                                             std::string* error) {
  const auto fail = [&](const std::string& msg) -> std::optional<BlackBoxDoc> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  std::string parse_err;
  const std::optional<json::Value> doc = json::parse(text, &parse_err);
  if (!doc.has_value()) return fail("invalid JSON: " + parse_err);
  if (!doc->is_object()) return fail("black-box document is not an object");
  const json::Value* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "rips-blackbox-v1") {
    return fail("schema is not rips-blackbox-v1");
  }

  BlackBoxDoc out;
  out.reason = str_field(*doc, "reason");
  out.engine = str_field(*doc, "engine");
  out.num_nodes = static_cast<i32>(num_field(*doc, "nodes"));
  out.num_tasks = static_cast<u64>(num_field(*doc, "tasks"));
  const json::Value* complete = doc->find("complete");
  out.complete = complete != nullptr && complete->boolean;
  out.makespan_ns = num_field(*doc, "makespan_ns");
  out.samples_seen = static_cast<u64>(num_field(*doc, "samples_seen"));
  out.events_seen = static_cast<u64>(num_field(*doc, "events_seen"));

  const json::Value* samples = doc->find("samples");
  if (samples != nullptr) {
    if (!samples->is_array()) return fail("samples is not an array");
    for (const json::Value& sv : samples->array) {
      if (!sv.is_object()) return fail("sample entry is not an object");
      PhaseSample s;
      s.kind = parse_kind(str_field(sv, "kind"));
      s.phase = static_cast<u64>(num_field(sv, "phase"));
      s.t0 = num_field(sv, "t0");
      s.t1 = num_field(sv, "t1");
      s.tasks = static_cast<u64>(num_field(sv, "tasks"));
      s.moved = static_cast<u64>(num_field(sv, "moved"));
      s.imbalance = num_field(sv, "imbalance");
      s.comm_steps = num_field(sv, "comm_steps");
      s.rts_total = num_field(sv, "rts_total");
      s.retries = num_field(sv, "retries");
      s.live_nodes = static_cast<i32>(num_field(sv, "live_nodes"));
      s.drain_ns = num_field(sv, "drain_ns");
      s.executed_total = static_cast<u64>(num_field(sv, "executed_total"));
      s.job = static_cast<i32>(num_field(sv, "job", -1));
      out.samples.push_back(s);
    }
  }

  const json::Value* events = doc->find("events");
  if (events != nullptr) {
    if (!events->is_array()) return fail("events is not an array");
    // Reserve first: TelemetryEvent.detail points into detail_storage, so
    // the storage vector must never reallocate after pointers are taken.
    out.detail_storage.reserve(events->array.size());
    for (const json::Value& ev : events->array) {
      if (!ev.is_object()) return fail("event entry is not an object");
      TelemetryEvent e;
      e.kind = parse_event_kind(str_field(ev, "kind"));
      e.t = num_field(ev, "t");
      e.node = static_cast<NodeId>(num_field(ev, "node", kInvalidNode));
      e.phase = static_cast<u64>(num_field(ev, "phase"));
      e.arg = num_field(ev, "arg");
      out.detail_storage.push_back(str_field(ev, "detail"));
      e.detail = out.detail_storage.back().c_str();
      out.events.push_back(e);
    }
  }

  const json::Value* spans = doc->find("spans");
  if (spans != nullptr && spans->is_array()) {
    for (const json::Value& sv : spans->array) {
      if (!sv.is_object()) continue;
      BlackBoxSpan span;
      span.name = str_field(sv, "name");
      span.category = str_field(sv, "cat");
      span.node = static_cast<NodeId>(num_field(sv, "node", kInvalidNode));
      span.t0 = num_field(sv, "t0");
      span.dur_ns = num_field(sv, "dur");
      out.spans.push_back(std::move(span));
    }
  }
  return out;
}

std::optional<BlackBoxDoc> load_blackbox_file(const std::string& path,
                                              std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return load_blackbox_doc(ss.str(), error);
}

std::vector<Attribution> attribute_events(const BlackBoxDoc& doc) {
  std::vector<Attribution> out;
  out.reserve(doc.events.size());
  for (const TelemetryEvent& e : doc.events) {
    Attribution a;
    a.event = &e;
    // Latest covering window wins: a crash committed at a user-phase
    // boundary belongs to the phase that was running, not an earlier
    // system phase sharing the endpoint.
    for (size_t i = 0; i < doc.samples.size(); ++i) {
      const PhaseSample& s = doc.samples[i];
      if (e.t >= s.t0 && e.t <= s.t1) a.sample_index = i;
    }
    out.push_back(a);
  }
  return out;
}

std::string blackbox_report(const BlackBoxDoc& doc) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "black box: reason=%s engine=%s nodes=%d tasks=%llu "
                "complete=%s\n",
                doc.reason.c_str(), doc.engine.c_str(), doc.num_nodes,
                static_cast<unsigned long long>(doc.num_tasks),
                doc.complete ? "yes" : "no");
  out += buf;
  std::snprintf(buf, sizeof buf,
                "  retained %zu/%llu samples, %zu/%llu events, %zu spans\n",
                doc.samples.size(),
                static_cast<unsigned long long>(doc.samples_seen),
                doc.events.size(),
                static_cast<unsigned long long>(doc.events_seen),
                doc.spans.size());
  out += buf;

  const std::vector<Attribution> attributed = attribute_events(doc);
  if (attributed.empty()) out += "  no events recorded\n";
  for (const Attribution& a : attributed) {
    const TelemetryEvent& e = *a.event;
    std::snprintf(buf, sizeof buf,
                  "  event %-17s t=%-12lld node=%-5d arg=%-8lld %s\n",
                  telemetry_event_kind_name(e.kind),
                  static_cast<long long>(e.t), e.node,
                  static_cast<long long>(e.arg), e.detail);
    out += buf;
    if (a.sample_index != Attribution::kNoPhase) {
      const PhaseSample& s = doc.samples[a.sample_index];
      std::snprintf(buf, sizeof buf,
                    "    -> in %s phase %llu [%lld, %lld] tasks=%llu "
                    "imbalance=%lld live_nodes=%d\n",
                    phase_kind_name(s.kind),
                    static_cast<unsigned long long>(s.phase),
                    static_cast<long long>(s.t0),
                    static_cast<long long>(s.t1),
                    static_cast<unsigned long long>(s.tasks),
                    static_cast<long long>(s.imbalance), s.live_nodes);
      out += buf;
    } else {
      out += "    -> phase window not retained (ring overwrote it)\n";
    }
  }

  // The approach to failure: the last few phase windows the ring kept.
  const size_t tail = doc.samples.size() < 5 ? doc.samples.size() : 5;
  if (tail > 0) out += "  last phases before the dump:\n";
  for (size_t i = doc.samples.size() - tail; i < doc.samples.size(); ++i) {
    const PhaseSample& s = doc.samples[i];
    std::snprintf(buf, sizeof buf,
                  "    %-7s phase=%-6llu [%lld, %lld] tasks=%-8llu "
                  "imbalance=%-8lld live=%d\n",
                  phase_kind_name(s.kind),
                  static_cast<unsigned long long>(s.phase),
                  static_cast<long long>(s.t0), static_cast<long long>(s.t1),
                  static_cast<unsigned long long>(s.tasks),
                  static_cast<long long>(s.imbalance), s.live_nodes);
    out += buf;
  }
  return out;
}

}  // namespace rips::obs::analysis
