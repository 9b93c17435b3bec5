// Parallel sweep executor (docs/PERFORMANCE.md).
//
// A sweep is a vector of fully-specified RunDescriptors — workload,
// machine size, strategy, RIPS policies, optional fault plan and
// observability sinks. run_sweep() executes them across --jobs OS threads,
// each run with its own engine, scheduler, RNG and MetricsRegistry, and
// commits results in DESCRIPTOR ORDER. Because every run is a pure
// function of its descriptor, the result vector — and therefore anything
// serialized from it, such as `harness --json` — is byte-identical for any
// job count. Runs share only read-only inputs: the workloads, and one
// drain-cost table (core::TaskCosts) per (workload, local policy) that two
// or more RIPS runs replay, which the first of them builds and the last
// frees.
//
// This header also owns the single-run building blocks the bench tools
// share (Kind / run_strategy / StrategyRun).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/paper_workloads.hpp"
#include "balance/strategy.hpp"
#include "obs/metrics.hpp"
#include "obs/monitors.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "rips/config.hpp"
#include "rips/rips_engine.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "util/types.hpp"

namespace rips::sweep {

struct StrategyRun {
  std::string strategy;
  sim::RunMetrics metrics;
  std::vector<obs::PhaseSample> phases;  // RIPS system phases only
  /// Copy of the engine's metrics registry (counters / histograms /
  /// per-phase snapshots) — what `harness --json` serializes.
  obs::MetricsRegistry registry;
  /// RIPS: the tasks whose drain costs were computed for this run — its
  /// engine's own table or, in a sweep, the shared table of its key when
  /// this run built it (0 when it read a table another run built). Never
  /// serialized; tests read it.
  u64 costs_built = 0;
};

/// Strategy selector for run_strategy().
enum class Kind { kRandom, kGradient, kRid, kRips, kSid };

std::string kind_name(Kind kind);

/// The strategy a lower-case CLI name selects (rips|random|gradient|rid|
/// sid); nullopt for any other name.
std::optional<Kind> parse_kind(const std::string& name);

/// RIPS engine knobs that change cost but never results (ignored by the
/// dynamic strategies). `harness --suite=scale` turns snapshots off to keep
/// the steady-state loop allocation-free.
struct EngineTuning {
  bool phase_snapshots = true;
};

/// Runs `workload` on `nodes` processors (paper mesh shape) under the
/// given strategy. `rid_u` overrides RID's load-update factor (the paper
/// retunes it to 0.7 for IDA* on 64/128 nodes); `config` selects the RIPS
/// policies (default ANY-Lazy). `o` attaches optional observability sinks
/// (trace spans from all engines; the invariant monitor is RIPS-only).
/// `fault_plan` attaches fault injection (RIPS-only; ignored otherwise).
/// `costs` lends RIPS a drain-cost table built for this workload's trace
/// and cost model under config.local (RipsEngine::run); without one the
/// engine fills its own.
StrategyRun run_strategy(const apps::Workload& workload, i32 nodes, Kind kind,
                         double rid_u = 0.4,
                         core::RipsConfig config = core::RipsConfig{},
                         const obs::Obs& o = obs::Obs{},
                         const sim::FaultPlan* fault_plan = nullptr,
                         const EngineTuning& tuning = EngineTuning{},
                         const core::TaskCosts* costs = nullptr);

/// The dynamic strategy run_strategy runs for `kind` (any kind but
/// kRips): Random seeded 0xC0FFEE, RID with load-update factor `rid_u`.
std::unique_ptr<balance::Strategy> make_dynamic_strategy(Kind kind,
                                                         double rid_u = 0.4);

/// The paper's four Table-I strategies in row order.
std::vector<Kind> table1_kinds();

/// One fully-specified run of a sweep. The workload pointer must stay
/// valid for the duration of run_sweep (workloads are shared read-only
/// between concurrent runs).
struct RunDescriptor {
  const apps::Workload* workload = nullptr;
  i32 nodes = 32;
  Kind kind = Kind::kRips;
  double rid_u = 0.4;
  core::RipsConfig config;
  const sim::FaultPlan* fault_plan = nullptr;  // RIPS only
  /// Record a per-run Perfetto session (RunResult::trace). Off by default:
  /// a 32-node session is tens of MB, so sweeps enable it only for the
  /// runs whose trace they actually export.
  bool collect_trace = false;
  /// Attach a per-run InvariantMonitor (RIPS only, like the harness).
  bool monitor = false;
  /// Record a per-run time series (RunResult::timeseries): a private
  /// TelemetryBus + TimeSeriesSampler pair is created inside the run slot,
  /// so concurrent runs can never leak samples into each other. The
  /// sampler is passive — metrics and registries stay byte-identical with
  /// sampling on or off, for any job count.
  bool collect_timeseries = false;
  /// Optional extra subscriber attached to the per-run bus (the harness's
  /// shared --live-status printer). Must be internally thread-safe when
  /// the sweep runs with jobs > 1; may be null.
  obs::TelemetrySubscriber* live = nullptr;
  /// Optional relative cost estimate (any unit). The executor starts
  /// expensive runs first so the longest run does not begin last and
  /// stretch the sweep's tail; purely a scheduling hint — results are
  /// committed in descriptor order either way.
  double cost_hint = 0.0;
  /// RIPS engine knobs (cost-only; results are unaffected).
  EngineTuning tuning;
};

struct RunResult {
  StrategyRun run;
  bool ok = false;        ///< false => `error` holds the what() of the run
  std::string error;
  bool monitors_ok = true;
  std::string monitor_report;  ///< only populated when monitors_ok is false
  std::shared_ptr<obs::TraceSession> trace;  ///< when collect_trace was set
  /// Per-run sample series (when collect_timeseries was set), labeled
  /// "<workload>/<strategy>/n<nodes>".
  std::shared_ptr<obs::TimeSeriesSampler> timeseries;
  /// Host wall-clock of this run slot, milliseconds. NEVER serialized into
  /// deterministic outputs (stdout tables, bench JSON) — it exists for
  /// side channels only: perfbench times each benchmark row with it.
  double wall_ms = 0.0;
};

/// Executes every descriptor on up to `jobs` threads (<= 0: every CPU the
/// process may use) and returns results in descriptor order. A run that
/// throws a std::exception yields ok == false with the message captured —
/// sibling runs are unaffected. Output is byte-for-byte independent of
/// `jobs`. RIPS runs of the same workload and local policy share one
/// drain-cost table; their start order keeps them together, so the tables
/// alive at once are bounded by the thread count, not by the keys.
std::vector<RunResult> run_sweep(const std::vector<RunDescriptor>& descriptors,
                                 i32 jobs);

/// Builds the selected workload specs in parallel, committing in spec
/// order (workload construction dominates full-suite wall clock, so the
/// --jobs speedup comes from here as much as from the runs).
std::vector<apps::Workload> build_workloads(
    const std::vector<apps::WorkloadSpec>& specs, i32 jobs);

}  // namespace rips::sweep
