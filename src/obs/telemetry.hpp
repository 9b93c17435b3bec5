// Streaming telemetry bus — the in-flight counterpart of TraceSession.
//
// Engines publish one PhaseSample per phase boundary and one
// TelemetryEvent per notable incident (crash, recovery, invariant trip,
// collective suspicion), through Obs::phase / Obs::incident (obs.hpp),
// the calls that also write each record's trace form. Subscribers
// (TimeSeriesSampler, FlightRecorder, LiveStatusPrinter, future
// job-server streams) observe but never feed back: publishing alters no
// simulation state, so a run with a loaded bus is bit-identical to a run
// with none — the same passive-sink contract TraceSession keeps, and
// tests/test_telemetry.cpp locks it down.
//
// Cost discipline matches the rest of src/obs: engines hold a nullable
// `TelemetryBus*` in obs::Obs and every publish site is guarded, so the
// disabled path is a single test-and-branch (~1 ns; measured by
// bench/micro_sched.cpp's BM_TelemetryPublish* pair, the analogue of
// BM_ObsSpan*).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace rips::obs {

/// Which phase boundary a sample describes.
enum class PhaseKind : u8 {
  kSystem,   ///< RIPS system phase (scheduling + migration)
  kUser,     ///< RIPS user phase (local execution until drain condition)
  kSegment,  ///< DynamicEngine segment barrier
};

inline const char* phase_kind_name(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::kSystem: return "system";
    case PhaseKind::kUser: return "user";
    case PhaseKind::kSegment: return "segment";
  }
  return "?";
}

/// One per-phase telemetry sample. Plain aggregate of integers: cheap to
/// fill at the publish site, trivially copyable into bounded rings, and
/// safe to format from a signal handler (no owned memory).
struct PhaseSample {
  PhaseKind kind = PhaseKind::kSystem;
  u64 phase = 0;      ///< index within its kind (phase_system / phase_user)
  SimTime t0 = 0;     ///< phase start (sim time, ns)
  SimTime t1 = 0;     ///< phase end (sim time, ns)
  u64 tasks = 0;      ///< tasks scheduled (system) / executed (user, segment)
  u64 moved = 0;      ///< tasks migrated off their origin this phase
  i64 imbalance = 0;  ///< max-min ready-task load entering the phase
  i64 comm_steps = 0; ///< migration communication steps (system phases)
  i64 rts_total = 0;  ///< machine-wide ready-to-schedule tasks
  i64 retries = 0;    ///< collective retransmissions during the phase
  i32 live_nodes = 0; ///< surviving nodes when the sample was taken
  i64 drain_ns = 0;   ///< drain estimate: predicted - actual drain slack
  u64 executed_total = 0;  ///< cumulative tasks executed so far
  i32 job = -1;       ///< job index of a TimeSeriesSampler per-job row, else -1

  bool operator==(const PhaseSample&) const = default;
};

/// A notable incident, published out-of-band of the phase cadence. The
/// `detail` string must be a literal (or otherwise outlive the run) — the
/// same no-copy rule TraceEvent uses, which keeps the FlightRecorder ring
/// signal-safe to dump.
struct TelemetryEvent {
  enum class Kind : u8 {
    kCrash,             ///< fail-stop node loss committed
    kRecovery,          ///< recovery line completed, tasks re-adopted
    kMonitorViolation,  ///< an InvariantMonitor check failed
    kCollSuspect,       ///< collective layer suspected a silent node
  };

  Kind kind = Kind::kCrash;
  SimTime t = 0;           ///< sim time (0 when the layer has no clock)
  SimTime dur_ns = 0;      ///< extent of a recovery line; 0 otherwise
  NodeId node = kInvalidNode;  ///< subject node; kInvalidNode = machine-wide
  u64 phase = 0;           ///< system-phase index when the event fired
  i64 arg = 0;             ///< kind-specific magnitude (lost execs, ...)
  const char* detail = ""; ///< static string; never freed, never copied
};

inline const char* telemetry_event_kind_name(TelemetryEvent::Kind kind) {
  switch (kind) {
    case TelemetryEvent::Kind::kCrash: return "crash";
    case TelemetryEvent::Kind::kRecovery: return "recovery";
    case TelemetryEvent::Kind::kMonitorViolation: return "monitor_violation";
    case TelemetryEvent::Kind::kCollSuspect: return "coll_suspect";
  }
  return "?";
}

/// Run framing passed to subscribers before the first and after the last
/// sample, so they can size ETAs and label series.
struct RunStart {
  const char* engine = "";  ///< "rips" or "dynamic"
  i32 num_nodes = 0;
  u64 num_tasks = 0;        ///< trace size (ETA denominator)
};

/// Subscriber interface. Callbacks run on the publishing thread — under
/// run_sweep each run owns a private bus, so per-run subscribers need no
/// locking; only a subscriber shared across concurrent runs (the live
/// status line) must synchronize internally.
class TelemetrySubscriber {
 public:
  virtual ~TelemetrySubscriber();

  virtual void on_run_begin(const RunStart& run) { (void)run; }
  virtual void on_phase(const PhaseSample& sample) { (void)sample; }
  /// The per-job breakdown of a user phase of a run with a job map,
  /// delivered once right after on_phase(sample): `executed[j]` is job j's
  /// tasks executed in the phase.
  virtual void on_job_phase(const PhaseSample& sample,
                            std::span<const u64> executed) {
    (void)sample;
    (void)executed;
  }
  virtual void on_event(const TelemetryEvent& event) { (void)event; }
  virtual void on_run_end(SimTime makespan_ns) { (void)makespan_ns; }
};

/// Fan-out point. Dispatch is a plain loop over raw pointers — subscriber
/// lifetimes are owned by whoever attached them (run_one, the CLIs), and
/// must cover the whole run.
class TelemetryBus {
 public:
  void subscribe(TelemetrySubscriber* subscriber);
  /// No-op when `subscriber` was never attached.
  void unsubscribe(TelemetrySubscriber* subscriber);

  bool empty() const { return subscribers_.empty(); }
  std::size_t subscriber_count() const { return subscribers_.size(); }

  void publish_run_begin(const RunStart& run) const;
  /// on_phase, then on_job_phase when `job_executed` is non-empty.
  void publish(const PhaseSample& sample,
               std::span<const u64> job_executed = {}) const;
  void publish(const TelemetryEvent& event) const;
  void publish_run_end(SimTime makespan_ns) const;

 private:
  std::vector<TelemetrySubscriber*> subscribers_;
};

}  // namespace rips::obs
