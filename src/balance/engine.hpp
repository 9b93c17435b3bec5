// DynamicEngine — discrete-event simulation of a task trace executing on
// the simulated multicomputer under a dynamic load-balancing Strategy.
//
// Execution model (single-ported CPUs, message-driven runtime):
//   * every node runs one task at a time from its FIFO ready queue;
//   * completing a task spawns its trace children at that node; the
//     strategy places each child (locally or by message);
//   * messages cost the sender and receiver CPU time (see sim::CostModel)
//     plus per-hop network latency that occupies no CPU;
//   * synchronization segments end with a global barrier; the roots of the
//     next segment materialize on the node that executed the corresponding
//     task of the previous segment (data affinity), except segment 0 whose
//     roots all materialize on node 0 (sequential root expansion).
//
// The run is bit-deterministic: events fire in (time, scheduling order),
// strategy randomness comes from an explicit seed.
//
// Every event is one node's clock plus a fixed delay: a task completion at
// the node's free_at, or a message arriving free_at + hops * per_hop_ns
// after its sender's send. A node's free_at never decreases, so the events
// of each (node, hops) pair are scheduled in time order, and the event
// queue keeps one FIFO lane per pair (sim/event_queue.hpp) — lane
// (v, 0) holds v's task completions, lane (v, h) the messages v sends h
// hops away.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "apps/task_trace.hpp"
#include "balance/strategy.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/cost_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/task_queue.hpp"
#include "topo/topology.hpp"
#include "util/types.hpp"

namespace rips::balance {

class DynamicEngine {
 public:
  DynamicEngine(const topo::Topology& topo, const sim::CostModel& cost,
                Strategy& strategy);

  /// Executes the whole trace; returns the Table-I style metrics.
  sim::RunMetrics run(const apps::TaskTrace& trace);

  /// Structured observability (docs/OBSERVABILITY.md): optional Perfetto
  /// trace sink (task spans, segment barriers, message send/recv
  /// instants) and telemetry bus (segment samples). Passive — metrics are
  /// bit-identical with or without them. An attached monitor is only
  /// reset at run start: the paper's theorems are about the RIPS system
  /// phase, which this engine does not have.
  void set_obs(const obs::Obs& o) { obs_ = o; }

  /// Counters / histograms of the last run (tasks.executed, msg.sent,
  /// msg.latency_ns, queue.depth, ...). Always maintained; reset at run
  /// start; source of RunMetrics' counter columns.
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }

  /// Optional per-task job ownership for multi-job runs
  /// (apps::MergedJobs::owner, values in [0, num_jobs)). While attached,
  /// subsequent runs account tasks, executed work, completion time and
  /// non-local executions PER JOB (RunMetrics::jobs plus "job.<i>.*"
  /// registry counters). JobMetrics::tasks_migrated stays zero here:
  /// dynamic strategies move tasks point-to-point before execution, and
  /// those moves are already visible as the job's nonlocal_tasks. Purely
  /// observational — every pre-existing metric is bit-identical with or
  /// without a map. Pass nullptr to detach. `job_of` must outlive
  /// subsequent runs and have one entry per trace task.
  void set_job_map(const std::vector<i32>* job_of, i32 num_jobs) {
    job_of_ = job_of;
    num_jobs_ = job_of == nullptr ? 0 : num_jobs;
  }

  /// Per-node (busy, overhead) of the last run, for diagnostics/tests.
  struct NodeTotals {
    SimTime busy_ns = 0;
    SimTime ovh_ns = 0;
  };
  std::vector<NodeTotals> node_totals() const;

  // --- API for strategies -------------------------------------------------

  const topo::Topology& topology() const { return topo_; }
  const sim::CostModel& cost_model() const { return cost_; }

  /// Queue length of `node` including the task in execution.
  i64 load_of(NodeId node) const;

  /// Tasks waiting in `node`'s queue (excludes the executing task) — the
  /// number of tasks that could be migrated away.
  i64 queued_of(NodeId node) const;

  /// Simulated time at which `node`'s CPU becomes free.
  SimTime node_now(NodeId node) const;

  /// Places `task` on `node`'s own queue (charges spawn cost only).
  void enqueue_local(NodeId node, TaskId task);

  /// Sends a strategy message, optionally migrating queued tasks. The
  /// engine takes the OLDEST queued tasks (the shallowest, largest
  /// subtrees under the depth-first local execution order — the classic
  /// work-stealing discipline that lets load spread faster than pure
  /// diffusion). `max_tasks` limits how many are taken; they join the
  /// receiver's queue at delivery, and the delivered Message's num_tasks
  /// counts them. Charges sender CPU; the receiver is charged at delivery.
  void send_message(NodeId from, NodeId to, i32 kind, i64 a = 0, i64 b = 0,
                    i64 max_tasks = 0);

  /// Sends a freshly spawned (not yet enqueued) task to another node.
  void send_spawned_task(NodeId from, NodeId to, TaskId task);

 private:
  /// Engine-internal event kinds; strategy message kinds are >= 0.
  static constexpr i32 kFinish = -2;   ///< task `a` completes on `node`
  static constexpr i32 kMigrate = -1;  ///< a spawned task, no strategy meaning
  static constexpr u32 kNoTasks = ~u32{0};

  /// One scheduled event: a task completion or a message delivery to
  /// `node`. Trivially copyable; a message's migrated tasks wait in
  /// task_bufs_[tasks] (kNoTasks if it carries none).
  struct Pending {
    i64 a = 0;
    i64 b = 0;
    i64 corr = -1;
    NodeId node = 0;
    NodeId from = kInvalidNode;
    i32 kind = kFinish;
    u32 tasks = kNoTasks;
  };

  struct NodeRt {
    sim::TaskQueue queue;
    SimTime free_at = 0;
    SimTime busy_ns = 0;
    SimTime ovh_ns = 0;
    SimTime task_start_ns = 0;  // start of the executing task (task span)
    bool executing = false;
  };

  /// The queue lane of the events `node` schedules `hops` hops away (0:
  /// its own task completions), added on first use.
  size_t lane(NodeId node, i32 hops);

  void charge_overhead(NodeId node, SimTime ns);
  void maybe_start(NodeId node);
  void finish_task(NodeId node, TaskId task);
  void post(Pending msg, i64 tasks);
  void deliver(const Pending& msg);
  void release_segment(u32 segment, SimTime at);

  /// Migration buffers cycle through a free list: taken when a message
  /// carries tasks, returned (capacity kept) once they are delivered. In
  /// steady state the per-steal message path allocates nothing.
  u32 acquire_task_buf() {
    if (free_task_bufs_.empty()) {
      task_bufs_.emplace_back();
      return static_cast<u32>(task_bufs_.size() - 1);
    }
    const u32 buf = free_task_bufs_.back();
    free_task_bufs_.pop_back();
    return buf;
  }

  const topo::Topology& topo_;
  sim::CostModel cost_;
  Strategy& strategy_;

  const apps::TaskTrace* trace_ = nullptr;
  sim::EventQueue<Pending> events_;
  // Per node, (hops, lane) of every lane it has used. Only the hop counts
  // in use get a lane (Gradient and RID use 0 and 1 of a mesh's up to
  // diameter + 1), and the table outlives runs as the lanes do.
  std::vector<std::vector<std::pair<i32, u32>>> node_lanes_;
  std::vector<NodeRt> nodes_;
  std::vector<NodeId> origin_;     // per task: node where it materialized
  std::vector<NodeId> exec_node_;  // per task: node where it executed
  u64 completed_in_segment_ = 0;
  u32 current_segment_ = 0;
  std::vector<u64> segment_sizes_;
  sim::RunMetrics metrics_;
  SimTime now_ = 0;
  bool running_ = false;
  i64 msg_corr_ = 0;  // next send/recv correlation id (reset per run)
  std::vector<std::vector<TaskId>> task_bufs_;  // in-flight migrations
  std::vector<u32> free_task_bufs_;             // task_bufs_ slots not in use

  // Multi-job accounting (set_job_map); active only while a map is attached.
  const std::vector<i32>* job_of_ = nullptr;
  i32 num_jobs_ = 0;
  bool job_accounting_ = false;
  std::vector<u64> job_tasks_;        // cumulative executions per job
  std::vector<SimTime> job_work_ns_;  // cumulative executed work per job
  std::vector<SimTime> job_done_ns_;  // latest task end per job

  // Observability (cached instrument pointers — one add per increment).
  obs::Obs obs_;
  obs::MetricsRegistry registry_;
  obs::Counter* c_tasks_executed_;
  obs::Counter* c_tasks_nonlocal_;
  obs::Counter* c_tasks_migrated_;
  obs::Counter* c_msg_sent_;
  obs::Histogram* h_msg_latency_ns_;
  obs::Histogram* h_queue_depth_;
};

}  // namespace rips::balance
