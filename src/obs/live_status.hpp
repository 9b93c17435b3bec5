// LiveStatusPrinter — the `--live-status` stderr line. A TelemetryBus
// subscriber that keeps one carriage-return-overwritten progress line
// updated off the phase stream: phases/s, executed-task progress with a
// wall-clock ETA, the latest load imbalance, and fault counts. Intended
// for minutes-long scaling runs where a silent process is
// indistinguishable from a hung one.
//
// Writes only to stderr (never stdout), so the byte-identical-stdout
// determinism contract of the harness and sweep tools is untouched. The
// printer is internally locked: a single instance may be subscribed to
// many per-run buses at once (harness --jobs=N), aggregating progress
// across concurrent runs.
#pragma once

#include <chrono>
#include <cstdio>
#include <mutex>

#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace rips::obs {

class LiveStatusPrinter final : public TelemetrySubscriber {
 public:
  struct Options {
    FILE* out = nullptr;     ///< null = stderr
    u64 interval_ms = 250;   ///< minimum wall time between reprints
    u64 total_runs = 1;      ///< denominator for the run counter
  };

  LiveStatusPrinter() : LiveStatusPrinter(Options{}) {}
  explicit LiveStatusPrinter(Options options);

  // TelemetrySubscriber ---------------------------------------------------
  void on_run_begin(const RunStart& run) override;
  void on_phase(const PhaseSample& sample) override;
  void on_event(const TelemetryEvent& event) override;
  void on_run_end(SimTime makespan_ns) override;

  /// Prints the final state and a newline — call once after the last run
  /// so the shell prompt does not land mid-line.
  void finish();

  u64 phases_seen() const { return phases_seen_; }

 private:
  void print_locked(bool force);

  using Clock = std::chrono::steady_clock;

  Options options_;
  std::mutex mu_;
  Clock::time_point start_;
  Clock::time_point last_print_;
  bool printed_anything_ = false;
  u64 phases_seen_ = 0;
  u64 runs_done_ = 0;
  u64 tasks_total_ = 0;     ///< sum of trace sizes over started runs
  u64 tasks_executed_ = 0;  ///< executed, accumulated from user phases
  u64 faults_ = 0;
  i64 last_imbalance_ = 0;
};

}  // namespace rips::obs
