#include "obs/analysis/blackbox.hpp"

#include <cstdio>

namespace rips::obs::analysis {

std::vector<Attribution> attribute_events(const Series& series) {
  std::vector<Attribution> out;
  out.reserve(series.events.size());
  for (const TelemetryEvent& e : series.events) {
    Attribution a;
    a.event = &e;
    // Latest covering window wins: a crash committed at a user-phase
    // boundary belongs to the phase that was running, not an earlier
    // system phase sharing the endpoint.
    for (size_t i = 0; i < series.samples.size(); ++i) {
      const PhaseSample& s = series.samples[i];
      if (s.job < 0 && e.t >= s.t0 && e.t <= s.t1) a.sample_index = i;
    }
    out.push_back(a);
  }
  return out;
}

std::string blackbox_report(const TimeSeriesDoc& doc) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "black box: reason=%s series=%zu\n",
                doc.reason.empty() ? "none" : doc.reason.c_str(),
                doc.series.size());
  out += buf;
  for (const Series& series : doc.series) {
    std::snprintf(buf, sizeof buf,
                  "series %s: engine=%s nodes=%lld tasks=%llu complete=%s\n",
                  series.label.c_str(), series.engine.c_str(),
                  static_cast<long long>(series.nodes),
                  static_cast<unsigned long long>(series.tasks),
                  series.complete ? "yes" : "no");
    out += buf;
    std::snprintf(buf, sizeof buf, "  retained %zu/%llu samples, %zu events\n",
                  series.samples.size(),
                  static_cast<unsigned long long>(series.seen),
                  series.events.size());
    out += buf;

    const std::vector<Attribution> attributed = attribute_events(series);
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
        const PhaseSample& s = series.samples[a.sample_index];
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

    // The approach to failure: the last few phase windows kept, without
    // the per-job rows that repeat them.
    std::vector<const PhaseSample*> tail;
    for (size_t i = series.samples.size(); i-- > 0 && tail.size() < 5;) {
      const PhaseSample& s = series.samples[i];
      if (s.job < 0) tail.insert(tail.begin(), &s);
    }
    if (!tail.empty()) out += "  last phases:\n";
    for (const PhaseSample* s : tail) {
      std::snprintf(buf, sizeof buf,
                    "    %-7s phase=%-6llu [%lld, %lld] tasks=%-8llu "
                    "imbalance=%-8lld live=%d\n",
                    phase_kind_name(s->kind),
                    static_cast<unsigned long long>(s->phase),
                    static_cast<long long>(s->t0),
                    static_cast<long long>(s->t1),
                    static_cast<unsigned long long>(s->tasks),
                    static_cast<long long>(s->imbalance), s->live_nodes);
      out += buf;
    }
  }
  return out;
}

}  // namespace rips::obs::analysis
