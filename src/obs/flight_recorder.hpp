// FlightRecorder — the always-on black box: a TimeSeriesSampler with a
// small ring (the last 256 phase samples and 64 telemetry events), O(1)
// per phase, cheap enough to leave enabled on every run. When something
// goes wrong — a fault fires, an InvariantMonitor trips, or the process
// aborts — the recorder dumps the ring as a one-series
// `rips-timeseries-v1` document with a top-level `reason` member, so
// fault-injected runs and job-server failures are diagnosable post-mortem
// without paying full-trace cost. Unlike a plain sampler it keeps one row
// per phase: the per-job breakdown (on_job_phase) is ignored, so the ring
// covers the same span of phases however many jobs a run has.
//
// Dump triggers (none fire while the dump path is empty):
//   * automatically on kCrash / kMonitorViolation bus events;
//   * from a signal handler (SIGABRT / SIGSEGV / SIGBUS / SIGFPE) or
//     std::terminate after arm_process_hooks() — RIPS_CHECK failures
//     abort, so a tripped engine invariant still leaves a black box;
//   * manually via dump().
// Every dump goes through one writer, dump_signal_safe: snprintf +
// write(2) only (the rings hold plain integers and static strings,
// nothing to allocate), byte for byte the sampler's series_json() in the
// dump's envelope.
//
// `trace_tool blackbox <file>` pretty-prints a dump and attributes every
// recorded incident to the phase whose window contains it.
#pragma once

#include <string>
#include <utility>

#include "obs/timeseries.hpp"

namespace rips::obs {

class FlightRecorder final : public TimeSeriesSampler {
 public:
  /// The black box's ring capacities.
  static constexpr Options kRing{256, 64};

  /// An empty `dump_path` records without ever dumping.
  explicit FlightRecorder(std::string dump_path = "", Options ring = kRing);
  ~FlightRecorder() override;

  // TelemetrySubscriber ---------------------------------------------------
  /// Ignored: the ring keeps one row per phase.
  void on_job_phase(const PhaseSample& sample,
                    std::span<const u64> executed) override;
  /// Records the event; a crash or monitor violation triggers a dump.
  void on_event(const TelemetryEvent& event) override;

  // Dumping ---------------------------------------------------------------
  /// Writes the ring as a rips-timeseries-v1 document whose `reason` is
  /// `reason` to the dump path (or `path` when given). Returns false when
  /// both are empty or on I/O failure.
  bool dump(const char* reason, const std::string& path = "");
  u64 dumps_written() const { return dumps_written_; }
  const std::string& dump_path() const { return dump_path_; }
  /// Redirects automatic dumps (including the signal path) to `path`.
  void set_dump_path(std::string path) { dump_path_ = std::move(path); }

  // Process hooks ---------------------------------------------------------
  /// Makes this recorder the process-wide black box: installs handlers
  /// for SIGABRT/SIGSEGV/SIGBUS/SIGFPE and a std::terminate hook that
  /// dump before the process dies. One recorder at a time; arming a
  /// second recorder moves the hooks. The destructor disarms.
  void arm_process_hooks();
  static void disarm_process_hooks();
  /// Signal-safe dump to an open fd, the writer of every dump. Returns
  /// false when a write failed. Public so the signal handler can reach
  /// it; callable from tests.
  bool dump_signal_safe(int fd, const char* reason) const;

 private:
  std::string dump_path_;
  u64 dumps_written_ = 0;
};

}  // namespace rips::obs
