// FlightRecorder — the always-on black box. A bounded ring of the most
// recent phase samples and telemetry events (plus, optionally, the spans
// of an attached bounded TraceSession) that costs O(ring) memory and O(1)
// per phase, cheap enough to leave enabled on every run. When something
// goes wrong — a fault fires, an InvariantMonitor trips, or the process
// aborts — the recorder dumps a `rips-blackbox-v1` JSON file with the
// recent history, so fault-injected runs and future job-server failures
// are diagnosable post-mortem without paying full-trace cost.
//
// Dump triggers:
//   * automatically on kCrash / kMonitorViolation bus events
//     (Options::dump_on_event);
//   * from a signal handler (SIGABRT / SIGSEGV / SIGBUS / SIGFPE) or
//     std::terminate after arm_process_hooks() — RIPS_CHECK failures
//     abort, so a tripped engine invariant still leaves a black box. The
//     signal path writes with snprintf + write(2) only (the rings hold
//     plain integers and static strings, nothing to allocate);
//   * manually via dump().
//
// `trace_tool blackbox <file>` pretty-prints a dump and attributes every
// recorded incident to the phase whose window contains it.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace rips::obs {

class TraceSession;

class FlightRecorder final : public TelemetrySubscriber {
 public:
  struct Options {
    size_t sample_capacity = 256;  ///< recent phase samples retained
    size_t event_capacity = 64;    ///< recent telemetry events retained
    std::string dump_path = "rips-blackbox.json";
    /// Dump as soon as a crash or invariant violation crosses the bus
    /// (recovery / suspicion events are recorded but do not trigger).
    bool dump_on_event = true;
  };

  FlightRecorder() : FlightRecorder(Options{}) {}
  explicit FlightRecorder(Options options);
  ~FlightRecorder() override;

  /// Also embed the attached session's retained spans in dumps — pair the
  /// recorder with a small-capacity TraceSession (e.g. 64 events/track)
  /// for a per-node recent-span ring at bounded cost. Not consulted on
  /// the signal path. May be null.
  void attach_trace(const TraceSession* trace) { trace_ = trace; }

  // TelemetrySubscriber ---------------------------------------------------
  void on_run_begin(const RunStart& run) override;
  void on_phase(const PhaseSample& sample) override;
  void on_event(const TelemetryEvent& event) override;
  void on_run_end(SimTime makespan_ns) override;

  // Ring state ------------------------------------------------------------
  /// Retained samples, oldest first.
  std::vector<PhaseSample> samples() const;
  /// Retained events, oldest first.
  std::vector<TelemetryEvent> events() const;
  u64 samples_seen() const { return samples_seen_; }
  void clear();

  // Dumping ---------------------------------------------------------------
  /// Complete rips-blackbox-v1 document; `reason` lands in the header.
  std::string to_json(const char* reason) const;
  /// Writes to_json(reason) to Options::dump_path (or `path` when given).
  /// Returns false on I/O failure.
  bool dump(const char* reason, const std::string& path = "");
  u64 dumps_written() const { return dumps_written_; }
  const std::string& dump_path() const { return options_.dump_path; }
  /// Redirects automatic dumps (including the signal path) to `path`.
  void set_dump_path(std::string path) {
    options_.dump_path = std::move(path);
  }

  // Process hooks ---------------------------------------------------------
  /// Makes this recorder the process-wide black box: installs handlers
  /// for SIGABRT/SIGSEGV/SIGBUS/SIGFPE and a std::terminate hook that
  /// dump before the process dies. One recorder at a time; arming a
  /// second recorder moves the hooks. The destructor disarms.
  void arm_process_hooks();
  static void disarm_process_hooks();
  /// Signal-safe minimal dump (samples + events, no spans) to an open fd.
  /// Public so the signal handler can reach it; callable from tests.
  void dump_signal_safe(int fd, const char* reason) const;

 private:
  template <typename T>
  struct Ring {
    std::vector<T> buf;
    size_t cap;
    size_t next = 0;

    explicit Ring(size_t capacity) : cap(capacity == 0 ? 1 : capacity) {
      buf.reserve(cap);
    }
    void push(const T& value) {
      if (buf.size() < cap) {
        buf.push_back(value);
      } else {
        buf[next] = value;
        next = (next + 1) % buf.size();
      }
    }
    std::vector<T> in_order() const {
      std::vector<T> out;
      out.reserve(buf.size());
      for (size_t i = 0; i < buf.size(); ++i) {
        out.push_back(buf[(next + i) % buf.size()]);
      }
      return out;
    }
    void clear() {
      buf.clear();
      next = 0;
    }
  };

  Options options_;
  const TraceSession* trace_ = nullptr;
  RunStart run_;
  SimTime makespan_ns_ = 0;
  bool run_complete_ = false;
  u64 samples_seen_ = 0;
  u64 events_seen_ = 0;
  u64 dumps_written_ = 0;
  Ring<PhaseSample> sample_ring_;
  Ring<TelemetryEvent> event_ring_;
};

}  // namespace rips::obs
