#include "obs/analysis/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace rips::obs::analysis {

namespace {

std::string fmt_ms(SimTime ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string fmt_pct(SimTime part, SimTime whole) {
  char buf[32];
  const double p = whole > 0 ? 100.0 * static_cast<double>(part) /
                                   static_cast<double>(whole)
                             : 0.0;
  std::snprintf(buf, sizeof buf, "%5.1f%%", p);
  return buf;
}

/// Exact ns from the trace_event fractional-microsecond field.
SimTime ns_from_us(double us) {
  return static_cast<SimTime>(std::llround(us * 1000.0));
}

i64 ev_corr(const AnalysisEvent& e) {
  if (e.arg2_name == record::kSend.arg2) return e.arg2;
  if (e.arg_name == record::kSend.arg2) return e.arg;
  return -1;
}

void sort_events(std::vector<AnalysisEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const AnalysisEvent& a, const AnalysisEvent& b) {
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
                     return a.node < b.node;
                   });
}

}  // namespace

i64 AnalysisEvent::arg_value(std::string_view key, i64 fallback) const {
  if (arg_name == key) return arg;
  if (arg2_name == key) return arg2;
  return fallback;
}

AnalysisTrace AnalysisTrace::from_session(const TraceSession& session) {
  AnalysisTrace out;
  out.num_nodes = session.num_nodes();
  out.dropped = session.dropped();
  const std::vector<TraceEvent> events = session.sorted_events();
  out.events.reserve(events.size());
  for (const TraceEvent& e : events) {
    AnalysisEvent a;
    a.name = e.name;
    a.category = e.category;
    a.is_span = e.type == TraceEvent::Type::kSpan;
    a.node = e.node;
    a.start_ns = e.start_ns;
    a.dur_ns = e.dur_ns;
    if (e.arg_name != nullptr) {
      a.arg_name = e.arg_name;
      a.arg = e.arg;
    }
    if (e.arg2_name != nullptr) {
      a.arg2_name = e.arg2_name;
      a.arg2 = e.arg2;
    }
    out.events.push_back(std::move(a));
  }
  return out;
}

std::optional<AnalysisTrace> AnalysisTrace::from_trace_json(
    std::string_view text, std::string* error) {
  const auto fail = [&](const std::string& msg) -> std::optional<AnalysisTrace> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  std::string parse_err;
  const std::optional<json::Value> doc = json::parse(text, &parse_err);
  if (!doc.has_value()) return fail("invalid JSON: " + parse_err);
  if (!doc->is_object()) return fail("trace document is not an object");
  const json::Value* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail("missing traceEvents array");
  }

  // Pass 1: metadata — the machine track's tid — and the largest tid seen,
  // so per-node tids can be told apart from the machine-wide track.
  i64 machine_tid = -1;
  i64 max_tid = -1;
  for (const json::Value& ev : events->array) {
    if (!ev.is_object()) return fail("trace event is not an object");
    const json::Value* ph = ev.find("ph");
    const json::Value* tid = ev.find("tid");
    if (ph == nullptr || !ph->is_string()) continue;
    if (tid != nullptr && tid->is_number()) {
      max_tid = std::max(max_tid, tid->as_i64());
    }
    if (ph->string == "M") {
      const json::Value* name = ev.find("name");
      const json::Value* args = ev.find("args");
      if (name != nullptr && name->string == "thread_name" &&
          args != nullptr && args->is_object() && tid != nullptr) {
        const json::Value* label = args->find("name");
        if (label != nullptr && label->is_string() &&
            label->string == "machine") {
          machine_tid = tid->as_i64();
        }
      }
    }
  }

  AnalysisTrace out;
  out.num_nodes = machine_tid >= 0 ? static_cast<i32>(machine_tid)
                                   : static_cast<i32>(max_tid + 1);
  if (out.num_nodes <= 0) return fail("trace has no node tracks");
  const json::Value* other = doc->find("otherData");
  if (other != nullptr && other->is_object()) {
    const json::Value* dropped = other->find("dropped_events");
    if (dropped != nullptr && dropped->is_number()) {
      out.dropped = static_cast<u64>(dropped->as_i64());
    }
  }

  // Pass 2: the events themselves.
  for (const json::Value& ev : events->array) {
    const json::Value* ph = ev.find("ph");
    if (ph == nullptr || !ph->is_string()) continue;
    const bool is_span = ph->string == "X";
    if (!is_span && ph->string != "i") continue;  // metadata, counters, ...
    const json::Value* name = ev.find("name");
    const json::Value* cat = ev.find("cat");
    const json::Value* tid = ev.find("tid");
    const json::Value* ts = ev.find("ts");
    if (name == nullptr || !name->is_string() || tid == nullptr ||
        !tid->is_number() || ts == nullptr || !ts->is_number()) {
      return fail("trace event missing name/tid/ts");
    }
    AnalysisEvent a;
    a.name = name->string;
    a.category = cat != nullptr && cat->is_string() ? cat->string : "";
    a.is_span = is_span;
    const i64 t = tid->as_i64();
    a.node = (machine_tid >= 0 && t == machine_tid) ||
                     t >= static_cast<i64>(out.num_nodes)
                 ? kInvalidNode
                 : static_cast<NodeId>(t);
    a.start_ns = ns_from_us(ts->number);
    if (is_span) {
      const json::Value* dur = ev.find("dur");
      if (dur == nullptr || !dur->is_number()) {
        return fail("span event missing dur");
      }
      a.dur_ns = ns_from_us(dur->number);
    }
    const json::Value* args = ev.find("args");
    if (args != nullptr && args->is_object()) {
      size_t slot = 0;
      for (const auto& [key, value] : args->object) {
        if (!value.is_number()) continue;
        if (slot == 0) {
          a.arg_name = key;
          a.arg = value.as_i64();
        } else if (slot == 1) {
          a.arg2_name = key;
          a.arg2 = value.as_i64();
        }
        ++slot;
      }
    }
    out.events.push_back(std::move(a));
  }
  sort_events(out.events);
  return out;
}

SimTime AnalysisTrace::makespan() const {
  SimTime end = 0;
  for (const AnalysisEvent& e : events) end = std::max(end, e.end_ns());
  return end;
}

// --- critical path ---------------------------------------------------------

const char* category_name(Category c) {
  switch (c) {
    case Category::kCompute: return "compute";
    case Category::kIdle: return "idle";
    case Category::kSchedule: return "schedule";
    case Category::kCollective: return "collective";
    case Category::kMigration: return "migration";
    case Category::kRecovery: return "recovery";
  }
  return "?";
}

SimTime CriticalPath::attributed() const {
  SimTime sum = 0;
  for (SimTime v : by_category) sum += v;
  return sum;
}

namespace {

/// Appends a step, merging into the previous one when contiguous and alike
/// (keeps long idle stretches as one row).
void push_step(std::vector<CriticalStep>& steps, Category cat, SimTime t0,
               SimTime t1, NodeId node, const char* label) {
  if (t1 <= t0) return;
  if (!steps.empty()) {
    CriticalStep& prev = steps.back();
    if (prev.category == cat && prev.node == node && prev.t1 == t0 &&
        prev.label == label) {
      prev.t1 = t1;
      return;
    }
  }
  steps.push_back({cat, t0, t1, node, label});
}

/// Fills [cursor, t1] of a user-phase tail: collective_retry machine spans
/// become kCollective, the rest kIdle.
void fill_tail(std::vector<CriticalStep>& steps,
               const std::vector<const AnalysisEvent*>& coll, SimTime t0,
               SimTime cursor, SimTime t1, NodeId node) {
  for (const AnalysisEvent* c : coll) {
    if (c->end_ns() <= t0 || c->start_ns >= t1) continue;
    const SimTime a = std::max(c->start_ns, cursor);
    const SimTime b = std::min(c->end_ns(), t1);
    if (b <= a) continue;
    push_step(steps, Category::kIdle, cursor, a, node, "wait");
    push_step(steps, Category::kCollective, a, b, kInvalidNode,
              c->name.c_str());
    cursor = b;
  }
  push_step(steps, Category::kIdle, cursor, t1, node, "wait");
}

CriticalPath phased_critical_path(const AnalysisTrace& trace) {
  CriticalPath cp;
  cp.phased = true;
  cp.makespan = trace.makespan();

  std::vector<const AnalysisEvent*> phases;
  std::vector<const AnalysisEvent*> children;  // recovery/schedule/migrate
  std::vector<const AnalysisEvent*> coll;
  std::vector<std::vector<const AnalysisEvent*>> tasks(
      static_cast<size_t>(trace.num_nodes));
  for (const AnalysisEvent& e : trace.events) {
    if (!e.is_span) continue;
    if (e.node == kInvalidNode) {
      if (e.name == record::kSystemPhase.name ||
          e.name == record::kUserPhase.name) {
        phases.push_back(&e);
      } else if (e.name == record::kRecovery.name ||
                 e.name == record::kSchedule.name ||
                 e.name == record::kMigrate.name) {
        children.push_back(&e);
      } else if (e.category == record::kCollectiveRetry.category) {
        coll.push_back(&e);
      }
    } else if (e.category == record::kTask.category && e.node >= 0 &&
               e.node < trace.num_nodes) {
      tasks[static_cast<size_t>(e.node)].push_back(&e);
    }
  }
  // Per-node cursor into the (time-sorted) task list: phases are processed
  // in time order, so each list is consumed front to back.
  std::vector<size_t> cursor(tasks.size(), 0);

  SimTime gcursor = 0;
  for (const AnalysisEvent* p : phases) {
    const SimTime t0 = p->start_ns;
    const SimTime t1 = p->end_ns();
    // Phases tile the run exactly; any gap here means the trace lost
    // events (ring overwrite) — attribute it as idle rather than lie.
    push_step(cp.steps, Category::kIdle, gcursor, t0, kInvalidNode, "gap");
    if (p->name == record::kSystemPhase.name) {
      SimTime c = t0;
      for (const AnalysisEvent* ch : children) {
        if (ch->start_ns < t0 || ch->end_ns() > t1) continue;
        push_step(cp.steps, Category::kIdle, c, ch->start_ns, kInvalidNode,
                  "gap");
        const Category cat =
            ch->name == record::kRecovery.name  ? Category::kRecovery
            : ch->name == record::kMigrate.name ? Category::kMigration
                                                : Category::kSchedule;
        push_step(cp.steps, cat, std::max(c, ch->start_ns), ch->end_ns(),
                  kInvalidNode, ch->name.c_str());
        c = std::max(c, ch->end_ns());
      }
      push_step(cp.steps, Category::kIdle, c, t1, kInvalidNode, "gap");
    } else {
      // User phase: the critical node is the one whose last task ends
      // latest (ties: more total task time, then smaller id).
      NodeId crit = kInvalidNode;
      SimTime crit_end = -1;
      SimTime crit_total = -1;
      std::vector<std::pair<size_t, size_t>> range(tasks.size());
      for (size_t nd = 0; nd < tasks.size(); ++nd) {
        size_t c0 = cursor[nd];
        while (c0 < tasks[nd].size() && tasks[nd][c0]->end_ns() <= t0) ++c0;
        size_t c1 = c0;
        SimTime total = 0;
        SimTime last_end = -1;
        while (c1 < tasks[nd].size() && tasks[nd][c1]->end_ns() <= t1 &&
               tasks[nd][c1]->start_ns >= t0) {
          total += tasks[nd][c1]->dur_ns;
          last_end = tasks[nd][c1]->end_ns();
          ++c1;
        }
        range[nd] = {c0, c1};
        cursor[nd] = c1;
        if (c1 == c0) continue;
        if (last_end > crit_end ||
            (last_end == crit_end && total > crit_total)) {
          crit = static_cast<NodeId>(nd);
          crit_end = last_end;
          crit_total = total;
        }
      }
      SimTime c = t0;
      if (crit != kInvalidNode) {
        const auto [c0, c1] = range[static_cast<size_t>(crit)];
        for (size_t i = c0; i < c1; ++i) {
          const AnalysisEvent* s = tasks[static_cast<size_t>(crit)][i];
          push_step(cp.steps, Category::kIdle, c, s->start_ns, crit, "wait");
          push_step(cp.steps, Category::kCompute, std::max(c, s->start_ns),
                    s->end_ns(), crit, "task");
          c = std::max(c, s->end_ns());
        }
      }
      fill_tail(cp.steps, coll, t0, c, t1, crit);
    }
    gcursor = std::max(gcursor, t1);
  }
  push_step(cp.steps, Category::kIdle, gcursor, cp.makespan, kInvalidNode,
            "gap");
  return cp;
}

CriticalPath graph_critical_path(const AnalysisTrace& trace) {
  CriticalPath cp;
  cp.phased = false;
  cp.makespan = trace.makespan();

  struct Recv {
    const AnalysisEvent* ev;
    bool used = false;
  };
  std::vector<std::vector<const AnalysisEvent*>> tasks(
      static_cast<size_t>(trace.num_nodes));
  std::vector<std::vector<Recv>> recvs(static_cast<size_t>(trace.num_nodes));
  std::map<i64, const AnalysisEvent*> send_by_corr;
  std::vector<const AnalysisEvent*> barriers;
  for (const AnalysisEvent& e : trace.events) {
    if (e.node == kInvalidNode) {
      if (e.is_span) barriers.push_back(&e);
      continue;
    }
    if (e.node < 0 || e.node >= trace.num_nodes) continue;
    const auto nd = static_cast<size_t>(e.node);
    if (e.is_span && e.category == record::kTask.category) {
      tasks[nd].push_back(&e);
    } else if (!e.is_span && e.category == record::kSend.category) {
      const i64 corr = ev_corr(e);
      if (corr < 0) continue;
      if (e.name == record::kRecv.name) {
        recvs[nd].push_back({&e, false});
      } else if (e.name == record::kSend.name) {
        send_by_corr.emplace(corr, &e);
      }
    }
  }

  // Barrier overlay: idle stretches that coincide with machine-track spans
  // (segment barriers) are collective time, not node laziness.
  const auto fill_gap = [&](NodeId node, SimTime a, SimTime b) {
    SimTime c = a;
    for (const AnalysisEvent* bar : barriers) {
      if (bar->end_ns() <= a || bar->start_ns >= b) continue;
      const SimTime x = std::max(bar->start_ns, c);
      const SimTime y = std::min(bar->end_ns(), b);
      if (y <= x) continue;
      push_step(cp.steps, Category::kIdle, c, x, node, "wait");
      push_step(cp.steps, Category::kCollective, x, y, kInvalidNode,
                bar->name.c_str());
      c = y;
    }
    push_step(cp.steps, Category::kIdle, c, b, node, "wait");
  };

  // Start from the task span that ends last.
  const AnalysisEvent* last = nullptr;
  for (const auto& per_node : tasks) {
    for (const AnalysisEvent* s : per_node) {
      if (last == nullptr || s->end_ns() > last->end_ns()) last = s;
    }
  }
  if (last == nullptr) {
    fill_gap(kInvalidNode, 0, cp.makespan);
  } else {
    NodeId cur_node = last->node;
    SimTime cur_t = cp.makespan;
    size_t guard = 4 * trace.events.size() + 16;
    while (guard-- > 0) {
      const auto nd = static_cast<size_t>(cur_node);
      // Latest task span on this node ending at or before cur_t.
      const AnalysisEvent* s = nullptr;
      {
        const auto& v = tasks[nd];
        auto it = std::upper_bound(
            v.begin(), v.end(), cur_t,
            [](SimTime t, const AnalysisEvent* e) { return t < e->end_ns(); });
        if (it != v.begin()) s = *(it - 1);
      }
      // Latest unused recv on this node at or before cur_t whose matching
      // send survived in the trace.
      Recv* r = nullptr;
      const AnalysisEvent* send = nullptr;
      for (auto rit = recvs[nd].rbegin(); rit != recvs[nd].rend(); ++rit) {
        if (rit->used || rit->ev->start_ns > cur_t) continue;
        const auto sit = send_by_corr.find(ev_corr(*rit->ev));
        if (sit == send_by_corr.end()) {
          rit->used = true;  // orphaned recv (ring overwrote the send)
          continue;
        }
        r = &*rit;
        send = sit->second;
        break;
      }
      if (s != nullptr && (r == nullptr || s->end_ns() >= r->ev->start_ns)) {
        fill_gap(cur_node, s->end_ns(), cur_t);
        push_step(cp.steps, Category::kCompute, s->start_ns, s->end_ns(),
                  cur_node, "task");
        cur_t = s->start_ns;
      } else if (r != nullptr) {
        fill_gap(cur_node, r->ev->start_ns, cur_t);
        push_step(cp.steps, Category::kMigration, send->start_ns,
                  r->ev->start_ns, cur_node, "msg");
        r->used = true;
        cur_t = std::min(cur_t, send->start_ns);
        cur_node = send->node;
      } else {
        break;
      }
      if (cur_t <= 0) break;
    }
    if (cur_t > 0) fill_gap(cur_node, 0, cur_t);
  }
  std::sort(cp.steps.begin(), cp.steps.end(),
            [](const CriticalStep& a, const CriticalStep& b) {
              return a.t0 != b.t0 ? a.t0 < b.t0 : a.t1 < b.t1;
            });
  return cp;
}

}  // namespace

CriticalPath critical_path(const AnalysisTrace& trace) {
  bool phased = false;
  for (const AnalysisEvent& e : trace.events) {
    if (e.is_span && e.node == kInvalidNode &&
        e.name == record::kSystemPhase.name) {
      phased = true;
      break;
    }
  }
  CriticalPath cp =
      phased ? phased_critical_path(trace) : graph_critical_path(trace);
  for (const CriticalStep& s : cp.steps) {
    cp.by_category[static_cast<size_t>(s.category)] += s.dur();
  }
  return cp;
}

std::string CriticalPath::to_json() const {
  std::string out = "{\"schema\":\"rips-critical-path-v1\"";
  out += ",\"makespan_ns\":" + std::to_string(makespan);
  out += ",\"phased\":";
  out += phased ? "true" : "false";
  out += ",\"attributed_ns\":" + std::to_string(attributed());
  out += ",\"by_category\":{";
  for (size_t c = 0; c < kNumCategories; ++c) {
    if (c > 0) out += ",";
    out += json::quoted(category_name(static_cast<Category>(c))) + ":" +
           std::to_string(by_category[c]);
  }
  out += "},\"steps\":[";
  for (size_t i = 0; i < steps.size(); ++i) {
    const CriticalStep& s = steps[i];
    if (i > 0) out += ",";
    out += "\n{\"category\":" + json::quoted(category_name(s.category)) +
           ",\"t0_ns\":" + std::to_string(s.t0) +
           ",\"t1_ns\":" + std::to_string(s.t1) +
           ",\"node\":" + std::to_string(s.node == kInvalidNode ? -1 : s.node) +
           ",\"label\":" + json::quoted(s.label) + "}";
  }
  out += "\n]}\n";
  return out;
}

std::string CriticalPath::to_text() const {
  std::string out = "critical path: makespan " + fmt_ms(makespan) + " ms, " +
                    std::to_string(steps.size()) + " steps (" +
                    (phased ? "phased" : "event-graph") + " mode)\n";
  for (size_t c = 0; c < kNumCategories; ++c) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "  %-10s %12s ms  %s\n",
                  category_name(static_cast<Category>(c)),
                  fmt_ms(by_category[c]).c_str(),
                  fmt_pct(by_category[c], makespan).c_str());
    out += buf;
  }
  out += "  attributed " + fmt_ms(attributed()) + " ms of " + fmt_ms(makespan) +
         " ms\n";
  return out;
}

// --- phase profile ---------------------------------------------------------

PhaseProfile phase_profile(const AnalysisTrace& trace) {
  PhaseProfile p;
  p.num_nodes = trace.num_nodes;
  p.makespan = trace.makespan();
  p.nodes.resize(static_cast<size_t>(trace.num_nodes));
  for (i32 nd = 0; nd < trace.num_nodes; ++nd) {
    p.nodes[static_cast<size_t>(nd)].node = nd;
  }

  std::vector<const AnalysisEvent*> children;
  for (const AnalysisEvent& e : trace.events) {
    if (e.node == kInvalidNode) {
      if (!e.is_span) continue;
      if (e.name == record::kSystemPhase.name) {
        PhaseRow row;
        row.index = p.system_phases.size();
        row.start_ns = e.start_ns;
        row.duration_ns = e.dur_ns;
        row.scheduled = e.arg_value(record::kSystemPhase.arg);
        p.system_phases.push_back(row);
        p.system_total_ns += e.dur_ns;
      } else if (e.name == record::kUserPhase.name) {
        UserRow row;
        row.index = p.user_phases.size();
        row.start_ns = e.start_ns;
        row.duration_ns = e.dur_ns;
        row.executed = e.arg_value(record::kUserPhase.arg);
        p.user_phases.push_back(row);
        p.user_total_ns += e.dur_ns;
      } else if (e.name == record::kSchedule.name ||
                 e.name == record::kMigrate.name ||
                 e.name == record::kRecovery.name) {
        children.push_back(&e);
      } else if (e.category == record::kCollectiveRetry.category) {
        p.collective_total_ns += e.dur_ns;
      }
      continue;
    }
    if (e.node < 0 || e.node >= trace.num_nodes) continue;
    NodeRow& nr = p.nodes[static_cast<size_t>(e.node)];
    if (e.is_span && e.category == record::kTask.category) {
      nr.tasks += 1;
      nr.busy_ns += e.dur_ns;
    } else if (!e.is_span && e.category == record::kSend.category) {
      if (e.name == record::kSend.name) nr.sends += 1;
      if (e.name == record::kRecv.name) nr.recvs += 1;
    } else if (!e.is_span && e.name == record::kCrash.name) {
      nr.crashed = true;
    }
  }

  // Attach schedule/migrate/recovery sub-spans to their system phase.
  for (const AnalysisEvent* ch : children) {
    for (PhaseRow& row : p.system_phases) {
      if (ch->start_ns < row.start_ns ||
          ch->end_ns() > row.start_ns + row.duration_ns) {
        continue;
      }
      if (ch->name == record::kSchedule.name) {
        row.schedule_ns += ch->dur_ns;
        row.comm_steps += ch->arg_value(record::kSchedule.arg);
      } else if (ch->name == record::kMigrate.name) {
        row.migrate_ns += ch->dur_ns;
        row.moved += ch->arg_value(record::kMigrate.arg);
      } else {
        row.recovery_ns += ch->dur_ns;
        row.reinjected += ch->arg_value(record::kRecovery.arg);
      }
      break;
    }
  }
  for (const PhaseRow& row : p.system_phases) {
    p.schedule_total_ns += row.schedule_ns;
    p.migrate_total_ns += row.migrate_ns;
    p.recovery_total_ns += row.recovery_ns;
  }
  for (NodeRow& nr : p.nodes) {
    p.compute_total_ns += nr.busy_ns;
    const SimTime used = nr.busy_ns + p.system_total_ns;
    nr.idle_ns = p.makespan > used ? p.makespan - used : 0;
  }
  return p;
}

std::string PhaseProfile::to_json() const {
  std::string out = "{\"schema\":\"rips-phase-profile-v1\"";
  out += ",\"makespan_ns\":" + std::to_string(makespan);
  out += ",\"num_nodes\":" + std::to_string(num_nodes);
  out += ",\"totals\":{";
  out += "\"system_ns\":" + std::to_string(system_total_ns);
  out += ",\"user_ns\":" + std::to_string(user_total_ns);
  out += ",\"schedule_ns\":" + std::to_string(schedule_total_ns);
  out += ",\"migrate_ns\":" + std::to_string(migrate_total_ns);
  out += ",\"recovery_ns\":" + std::to_string(recovery_total_ns);
  out += ",\"collective_ns\":" + std::to_string(collective_total_ns);
  out += ",\"compute_ns\":" + std::to_string(compute_total_ns);
  out += "},\"system_phases\":[";
  for (size_t i = 0; i < system_phases.size(); ++i) {
    const PhaseRow& r = system_phases[i];
    if (i > 0) out += ",";
    out += "\n{\"index\":" + std::to_string(r.index) +
           ",\"start_ns\":" + std::to_string(r.start_ns) +
           ",\"duration_ns\":" + std::to_string(r.duration_ns) +
           ",\"schedule_ns\":" + std::to_string(r.schedule_ns) +
           ",\"migrate_ns\":" + std::to_string(r.migrate_ns) +
           ",\"recovery_ns\":" + std::to_string(r.recovery_ns) +
           ",\"scheduled\":" + std::to_string(r.scheduled) +
           ",\"comm_steps\":" + std::to_string(r.comm_steps) +
           ",\"moved\":" + std::to_string(r.moved) +
           ",\"reinjected\":" + std::to_string(r.reinjected) + "}";
  }
  out += "\n],\"user_phases\":[";
  for (size_t i = 0; i < user_phases.size(); ++i) {
    const UserRow& r = user_phases[i];
    if (i > 0) out += ",";
    out += "\n{\"index\":" + std::to_string(r.index) +
           ",\"start_ns\":" + std::to_string(r.start_ns) +
           ",\"duration_ns\":" + std::to_string(r.duration_ns) +
           ",\"executed\":" + std::to_string(r.executed) + "}";
  }
  out += "\n],\"nodes\":[";
  for (size_t i = 0; i < nodes.size(); ++i) {
    const NodeRow& r = nodes[i];
    if (i > 0) out += ",";
    out += "\n{\"node\":" + std::to_string(r.node) +
           ",\"tasks\":" + std::to_string(r.tasks) +
           ",\"busy_ns\":" + std::to_string(r.busy_ns) +
           ",\"idle_ns\":" + std::to_string(r.idle_ns) +
           ",\"sends\":" + std::to_string(r.sends) +
           ",\"recvs\":" + std::to_string(r.recvs) + ",\"crashed\":" +
           (r.crashed ? "true" : "false") + "}";
  }
  out += "\n]}\n";
  return out;
}

std::string PhaseProfile::to_text() const {
  std::string out;
  char buf[160];
  out += "phase profile: makespan " + fmt_ms(makespan) + " ms on " +
         std::to_string(num_nodes) + " nodes\n";
  std::snprintf(buf, sizeof buf,
                "system phases: %zu  total %s ms (%s)  schedule %s | migrate "
                "%s | recovery %s\n",
                system_phases.size(), fmt_ms(system_total_ns).c_str(),
                fmt_pct(system_total_ns, makespan).c_str(),
                fmt_ms(schedule_total_ns).c_str(),
                fmt_ms(migrate_total_ns).c_str(),
                fmt_ms(recovery_total_ns).c_str());
  out += buf;
  std::snprintf(buf, sizeof buf,
                "user phases:   %zu  total %s ms (%s)  collective-retry %s\n",
                user_phases.size(), fmt_ms(user_total_ns).c_str(),
                fmt_pct(user_total_ns, makespan).c_str(),
                fmt_ms(collective_total_ns).c_str());
  out += buf;

  constexpr size_t kMaxRows = 64;
  out += " phase  start_ms   dur_ms  sched_ms  migr_ms  recov_ms  tasks  "
         "steps  moved  reinj\n";
  for (size_t i = 0; i < system_phases.size() && i < kMaxRows; ++i) {
    const PhaseRow& r = system_phases[i];
    std::snprintf(buf, sizeof buf,
                  " %5llu  %8s %8s  %8s %8s  %8s %6lld %6lld %6lld %6lld\n",
                  static_cast<unsigned long long>(r.index),
                  fmt_ms(r.start_ns).c_str(), fmt_ms(r.duration_ns).c_str(),
                  fmt_ms(r.schedule_ns).c_str(), fmt_ms(r.migrate_ns).c_str(),
                  fmt_ms(r.recovery_ns).c_str(),
                  static_cast<long long>(r.scheduled),
                  static_cast<long long>(r.comm_steps),
                  static_cast<long long>(r.moved),
                  static_cast<long long>(r.reinjected));
    out += buf;
  }
  if (system_phases.size() > kMaxRows) {
    out += " ... (" + std::to_string(system_phases.size() - kMaxRows) +
           " more system phases)\n";
  }
  out += " node   tasks   busy_ms   idle_ms  sends  recvs\n";
  for (size_t i = 0; i < nodes.size() && i < kMaxRows; ++i) {
    const NodeRow& r = nodes[i];
    std::snprintf(buf, sizeof buf, " %4d %7llu  %8s  %8s %6llu %6llu%s\n",
                  r.node, static_cast<unsigned long long>(r.tasks),
                  fmt_ms(r.busy_ns).c_str(), fmt_ms(r.idle_ns).c_str(),
                  static_cast<unsigned long long>(r.sends),
                  static_cast<unsigned long long>(r.recvs),
                  r.crashed ? "  CRASHED" : "");
    out += buf;
  }
  if (nodes.size() > kMaxRows) {
    out += " ... (" + std::to_string(nodes.size() - kMaxRows) +
           " more nodes)\n";
  }
  return out;
}

// --- span aggregation ------------------------------------------------------

std::vector<SpanAgg> top_spans(const AnalysisTrace& trace, size_t limit) {
  std::map<std::pair<std::string, std::string>, SpanAgg> agg;
  for (const AnalysisEvent& e : trace.events) {
    if (!e.is_span) continue;
    SpanAgg& a = agg[{e.category, e.name}];
    if (a.count == 0) {
      a.category = e.category;
      a.name = e.name;
    }
    a.count += 1;
    a.total_ns += e.dur_ns;
    a.max_ns = std::max(a.max_ns, e.dur_ns);
  }
  std::vector<SpanAgg> out;
  out.reserve(agg.size());
  for (auto& [key, value] : agg) out.push_back(std::move(value));
  std::sort(out.begin(), out.end(), [](const SpanAgg& a, const SpanAgg& b) {
    if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
    return a.name < b.name;
  });
  if (out.size() > limit) out.resize(limit);
  return out;
}

}  // namespace rips::obs::analysis
