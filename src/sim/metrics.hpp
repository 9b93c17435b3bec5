// Run metrics shared by the RIPS engine and the dynamic-strategy engine.
// The fields mirror the paper's Table I columns.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace rips::obs {
class MetricsRegistry;
}

namespace rips::sim {

/// Per-tenant accounting of one multi-job run (apps::merge_jobs +
/// set_job_map on the engines). All zero / empty for single-job runs.
struct JobMetrics {
  std::string name;
  u64 tasks = 0;            ///< tasks executed on behalf of this job
  u64 nonlocal_tasks = 0;   ///< executed away from their origin node
  u64 tasks_migrated = 0;   ///< moves of this job's tasks (RIPS only)
  SimTime work_ns = 0;        ///< executed work (the job's share of Ts)
  SimTime completion_ns = 0;  ///< simulated end of the job's last task

  /// Progress rate x_j = work / completion — the quantity the fairness
  /// index is computed over (a starved job finishes late relative to its
  /// work volume and drags its rate down).
  double progress_rate() const {
    return completion_ns <= 0
               ? 0.0
               : static_cast<double>(work_ns) /
                     static_cast<double>(completion_ns);
  }

  bool operator==(const JobMetrics&) const = default;
};

struct RunMetrics {
  i32 num_nodes = 0;
  u64 num_tasks = 0;        ///< tasks executed
  u64 nonlocal_tasks = 0;   ///< tasks executed away from their origin node
  u64 messages = 0;         ///< point-to-point messages (dynamic strategies)
  u64 system_phases = 0;    ///< RIPS system phases (0 for dynamic strategies)
  u64 tasks_migrated = 0;   ///< task moves summed over all migrations

  SimTime makespan_ns = 0;          ///< parallel execution time T
  SimTime total_busy_ns = 0;        ///< sum over nodes of user-work time
  SimTime total_overhead_ns = 0;    ///< sum over nodes of system overhead
  SimTime total_idle_ns = 0;        ///< sum over nodes of idle time

  /// Sequential execution time implied by the trace (total work).
  SimTime sequential_ns = 0;

  // --- fault tolerance (all zero on a fault-free run) -------------------

  /// Which drain-measuring pass the RIPS engine used: true = the O(queue)
  /// drain-sum fast path every run takes, false = the full O(subtree)
  /// re-simulation, which only tests select
  /// (RipsEngine::set_full_measure_pass); always false for dynamic
  /// strategies. Exported as rips-bench-v1's "measure_pass"
  /// ("drain-sum" | "full").
  bool used_fast_measure = false;

  u64 crashes = 0;            ///< fail-stop nodes lost during the run
  u64 recovery_phases = 0;    ///< system phases that doubled as recovery lines
  u64 tasks_reinjected = 0;   ///< checkpointed tasks re-adopted by survivors
  u64 tasks_reexecuted = 0;   ///< executions redone because the result died
  u64 dropped_messages = 0;   ///< collective messages lost on the wire
  u64 message_retries = 0;    ///< retransmissions issued by collectives
  SimTime lost_work_ns = 0;       ///< work executed on nodes that then died
  SimTime recovery_time_ns = 0;   ///< detection + membership-rebuild time

  /// Per-job rows when a job map was attached (multi-job runs), in job
  /// index order; empty otherwise.
  std::vector<JobMetrics> jobs;

  /// Field-by-field equality — fault determinism tests assert that the
  /// same fault seed reproduces bit-identical metrics.
  bool operator==(const RunMetrics&) const = default;

  /// Jain fairness index over the per-job progress rates:
  /// J = (Σx)² / (n·Σx²), 1.0 = perfectly fair, 1/n = one job hogging the
  /// machine. 1.0 when fewer than two jobs are accounted.
  double job_fairness() const;

  /// Fills every counter column from an obs::MetricsRegistry — the engines
  /// count into their registry (the single source of truth) and derive this
  /// Table-I view at the end of a run. Time totals (makespan, busy, idle,
  /// sequential) are computed by the engine, not stored in the registry.
  /// Counter names are documented in docs/OBSERVABILITY.md.
  void load_counters(const obs::MetricsRegistry& registry);

  /// Adds each row of `jobs` to `registry` as the per-tenant counters
  /// job.<i>.{tasks_executed,tasks_nonlocal,tasks_migrated,work_ns,
  /// completion_ns}, next to the machine-wide counters the bench JSON
  /// already embeds. Both engines call it when a multi-job run ends.
  void store_job_counters(obs::MetricsRegistry& registry) const;

  // --- Table I derived columns ------------------------------------------

  /// Overhead time Th: per-node average system overhead, seconds.
  double overhead_s() const {
    return num_nodes == 0
               ? 0.0
               : 1e-9 * static_cast<double>(total_overhead_ns) / num_nodes;
  }
  /// Idle time Ti: per-node average idle, seconds.
  double idle_s() const {
    return num_nodes == 0
               ? 0.0
               : 1e-9 * static_cast<double>(total_idle_ns) / num_nodes;
  }
  /// Execution time T, seconds.
  double exec_s() const { return 1e-9 * static_cast<double>(makespan_ns); }

  /// Efficiency mu = Ts / (Tp * N).
  double efficiency() const {
    if (makespan_ns <= 0 || num_nodes == 0) return 0.0;
    return static_cast<double>(sequential_ns) /
           (static_cast<double>(makespan_ns) * num_nodes);
  }
  /// Speedup Ts / Tp.
  double speedup() const {
    if (makespan_ns <= 0) return 0.0;
    return static_cast<double>(sequential_ns) /
           static_cast<double>(makespan_ns);
  }

  std::string summary() const;
};

/// Per-job submit-to-completion latency of a run: job j's sample is
/// jobs[j].completion_ns - submit_ns[j] over the jobs that have a submit
/// time, a non-positive latency (clock skew) clamped to 0 rather than
/// dropped. Percentile q is the sorted sample at index q·(n−1).
struct JobLatency {
  size_t samples = 0;
  SimTime p50_ns = 0;
  SimTime p95_ns = 0;
  SimTime p99_ns = 0;
  SimTime mean_ns = 0;
};
JobLatency job_latency(const RunMetrics& metrics,
                       const std::vector<SimTime>& submit_ns);

/// One run row of a rips-bench-v1 document (docs/OBSERVABILITY.md).
struct BenchRow {
  std::string workload;
  std::string group;
  std::string scheduler;
  std::string policy;
  i32 nodes = 0;
  RunMetrics metrics;
  bool monitors_ok = true;
  std::string registry_json;  ///< obs::MetricsRegistry::to_json() of the run
  /// Serving rows only. Per-job submit times (job index order) add the
  /// latency_* members; jobs_done adds the session's completed-job count.
  std::vector<SimTime> job_submit_ns;
  std::optional<u64> jobs_done;
};

/// The rips-bench-v1 document: the one writer behind every suite's --json
/// and rips_served's session export. It owns the member order and number
/// formats, and writes "fairness" and "jobs" only for rows with at least
/// two jobs (the loader, obs::analysis::load_bench_doc, requires as much).
std::string bench_doc_json(std::string_view suite, bool quick, i32 nodes,
                           const std::vector<BenchRow>& rows);

}  // namespace rips::sim
