#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace rips::obs {

TraceSession::TraceSession(i32 num_nodes, size_t capacity_per_track)
    : num_nodes_(num_nodes), capacity_(capacity_per_track) {
  RIPS_CHECK(num_nodes > 0 && capacity_per_track > 0);
  tracks_.resize(static_cast<size_t>(num_nodes) + 1);
}

void TraceSession::clear() {
  for (Ring& ring : tracks_) {
    ring.buf.clear();
    ring.next = 0;
    ring.full = false;
  }
  dropped_ = 0;
}

TraceSession::Ring& TraceSession::track(NodeId node) {
  if (node == kInvalidNode) return tracks_.back();
  RIPS_CHECK(node >= 0 && node < num_nodes_);
  return tracks_[static_cast<size_t>(node)];
}

void TraceSession::push(Ring& ring, const TraceEvent& event) {
  if (!ring.full) {
    ring.buf.push_back(event);
    if (ring.buf.size() == capacity_) ring.full = true;
    return;
  }
  ring.buf[ring.next] = event;
  ring.next = (ring.next + 1) % capacity_;
  dropped_ += 1;
}

void TraceSession::span(NodeId node, const record::Form& form, SimTime t0,
                        SimTime t1, i64 arg, i64 arg2) {
  push(track(node), {form.name, form.category, TraceEvent::Type::kSpan, node,
                     t0, t1 > t0 ? t1 - t0 : 0, form.arg, arg, form.arg2, arg2});
}

void TraceSession::instant(NodeId node, const record::Form& form, SimTime t,
                           i64 arg, i64 arg2) {
  push(track(node), {form.name, form.category, TraceEvent::Type::kInstant,
                     node, t, 0, form.arg, arg, form.arg2, arg2});
}

size_t TraceSession::size() const {
  size_t total = 0;
  for (const Ring& ring : tracks_) total += ring.buf.size();
  return total;
}

std::vector<TraceEvent> TraceSession::sorted_events() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  for (const Ring& ring : tracks_) {
    out.insert(out.end(), ring.buf.begin(), ring.buf.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
                     return a.node < b.node;
                   });
  return out;
}

std::string TraceSession::to_json() const {
  // The trace_event format wants microseconds; the simulator runs in
  // nanoseconds — emit fractional microseconds with ns resolution.
  const auto us = [](SimTime ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld.%03lld",
                  static_cast<long long>(ns / 1000),
                  static_cast<long long>(ns % 1000));
    return std::string(buf);
  };
  const auto tid = [&](NodeId node) {
    return node == kInvalidNode ? num_nodes_ : node;
  };

  std::string out = "{\"traceEvents\":[\n";
  out += "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"rips-sim\"}}";
  for (i32 node = 0; node <= num_nodes_; ++node) {
    const std::string label =
        node == num_nodes_ ? "machine" : "node " + std::to_string(node);
    out += ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(node) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":" +
           json::quoted(label) + "}}";
    // sort_index keeps the machine-wide track above the per-node lanes.
    out += ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(node) +
           ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" +
           std::to_string(node == num_nodes_ ? -1 : node) + "}}";
  }

  for (const TraceEvent& e : sorted_events()) {
    out += ",\n{\"name\":" + json::quoted(e.name) +
           ",\"cat\":" + json::quoted(e.category) + ",\"pid\":0,\"tid\":" +
           std::to_string(tid(e.node)) + ",\"ts\":" + us(e.start_ns);
    if (e.type == TraceEvent::Type::kSpan) {
      out += ",\"ph\":\"X\",\"dur\":" + us(e.dur_ns);
    } else {
      out += ",\"ph\":\"i\",\"s\":\"t\"";
    }
    if (e.arg_name != nullptr) {
      out += ",\"args\":{" + json::quoted(e.arg_name) + ":" +
             std::to_string(e.arg);
      if (e.arg2_name != nullptr) {
        out += "," + json::quoted(e.arg2_name) + ":" + std::to_string(e.arg2);
      }
      out += "}";
    } else if (e.arg2_name != nullptr) {
      out += ",\"args\":{" + json::quoted(e.arg2_name) + ":" +
             std::to_string(e.arg2) + "}";
    }
    out += "}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":" +
         std::to_string(dropped_) + "}}\n";
  return out;
}

bool TraceSession::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << to_json();
  out.flush();
  return static_cast<bool>(out);
}

std::string utilization_chart(const TraceSession& trace, i32 width) {
  RIPS_CHECK(width > 0);
  const auto named = [](const TraceEvent& e, const record::Form& form) {
    return std::strcmp(e.name, form.name) == 0;
  };
  // The charted records: task spans (busy time), crash instants ('X') and
  // the machine-wide system-phase, barrier and recovery spans ('|').
  // Sorted order keeps each node's task spans in execution order, so the
  // busy sums below always add up in the same order.
  std::vector<TraceEvent> events = trace.sorted_events();
  std::erase_if(events, [&](const TraceEvent& e) {
    if (e.type == TraceEvent::Type::kInstant) return !named(e, record::kCrash);
    if (e.node != kInvalidNode) {
      return std::strcmp(e.category, record::kTask.category) != 0;
    }
    return !named(e, record::kSystemPhase) &&
           !named(e, record::kSegmentBarrier) && !named(e, record::kRecovery);
  });
  SimTime horizon = 1;
  for (const TraceEvent& e : events) {
    horizon = std::max(horizon, e.start_ns + e.dur_ns);
  }
  const double bucket = static_cast<double>(horizon) / width;
  const auto bucket_of = [&](SimTime t) {
    return static_cast<i32>(static_cast<double>(t) / bucket);
  };

  const auto w = static_cast<size_t>(width);
  std::vector<double> busy(static_cast<size_t>(trace.num_nodes()) * w, 0.0);
  std::string footer(w, ' ');
  for (const TraceEvent& e : events) {
    const SimTime end = e.start_ns + e.dur_ns;
    const i32 last = std::min(width - 1, bucket_of(end));
    if (e.type == TraceEvent::Type::kInstant || e.node == kInvalidNode) {
      const char mark = e.type == TraceEvent::Type::kInstant ? 'X' : '|';
      for (i32 b = bucket_of(e.start_ns); b <= last; ++b) {
        char& slot = footer[static_cast<size_t>(b)];
        if (slot != 'X') slot = mark;  // a crash outranks a phase mark
      }
      continue;
    }
    for (i32 b = std::max(0, bucket_of(e.start_ns)); b <= last; ++b) {
      const double lo = std::max(static_cast<double>(e.start_ns), b * bucket);
      const double hi = std::min(static_cast<double>(end), (b + 1) * bucket);
      if (hi > lo) busy[static_cast<size_t>(e.node) * w + b] += hi - lo;
    }
  }

  static constexpr char kGlyphs[] = " .:-=#%@";
  constexpr i32 kLevels = 7;
  std::string out;
  for (i32 node = 0; node < trace.num_nodes(); ++node) {
    char label[16];
    std::snprintf(label, sizeof label, "%3d ", node);
    out += label;
    for (size_t b = 0; b < w; ++b) {
      const double fraction = busy[static_cast<size_t>(node) * w + b] / bucket;
      out += kGlyphs[std::clamp<i32>(static_cast<i32>(fraction * kLevels + 0.5),
                                     0, kLevels)];
    }
    out += '\n';
  }
  out += "    " + footer + "  (| = system phase / barrier, X = node failure)\n";
  return out;
}

}  // namespace rips::obs
