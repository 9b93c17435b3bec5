// RipsEngine — Runtime Incremental Parallel Scheduling (the paper's core
// contribution, Figure 1).
//
// Execution alternates between
//   SYSTEM PHASES: all processors cooperatively collect global load
//     information and rebalance their ready-to-schedule tasks with a
//     ParallelScheduler (MWA on meshes). Cost = the scheduler's lock-step
//     communication steps plus the per-node task-migration CPU time.
//   USER PHASES: every processor executes tasks from its RTE queue.
//     Lazy policy: spawned children enter the local RTE directly and may
//     run without ever being scheduled. Eager policy: children enter the
//     RTS queue and wait for the next system phase.
//     The phase ends per the global policy: ANY (first processor to drain
//     its RTE broadcasts `init`; everyone stops after its current task) or
//     ALL (tree ready-signal once every RTE drained). A periodic-reduction
//     detection mode models the naive implementation the paper argues
//     against (bench/ablation_interval).
//
// Synchronization segments of the trace (IDA* iterations, MD steps) end at
// a system phase that finds no work: the next segment's roots materialize
// on the nodes that executed the corresponding tasks of the previous
// segment (data affinity) and are scheduled in that same phase.
//
// FAULT TOLERANCE (docs/FAULTS.md). With a sim::FaultPlan attached the
// engine survives fail-stop crashes and lost collective messages. System
// phases double as recovery lines: each one snapshots the per-node RTE
// assignment (origin-replicated task descriptors = phase-granularity
// checkpointing); when survivors detect a dead node —
// heartbeat piggybacked on the ready/init signals, one timeout instead of
// a hung barrier — the next system phase rebuilds the live-node set, a
// survivor adopts and re-injects the dead node's checkpointed tasks, and
// scheduling continues over the degraded machine through a topo::LiveView
// rank remap plus a scheduler rebuilt for the survivor count. Work the
// dead node did since the last recovery line is lost and re-executed
// (counted in RunMetrics::tasks_reexecuted); every task still executes at
// least once. Fault-free runs are bit-identical to the engine without a
// plan attached.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "apps/task_trace.hpp"
#include "coll/collectives.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "rips/config.hpp"
#include "rips/task_costs.hpp"
#include "sched/scheduler.hpp"
#include "sim/cost_model.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "topo/live_view.hpp"
#include "util/types.hpp"

namespace rips::exec {
class TaskSource;
}

namespace rips::core {

class RipsEngine {
 public:
  RipsEngine(sched::ParallelScheduler& scheduler, const sim::CostModel& cost,
             RipsConfig config);

  /// Executes the whole trace; returns Table-I style metrics. The run
  /// fills its own drain-cost table unless `shared` lends one (a sweep's
  /// table for rows that replay the same trace under the same local
  /// policy): it is read, never written, and must outlive the run. A table
  /// built for another trace, trace size, ns_per_work, spawn_ns or local
  /// policy aborts the run (RIPS_CHECK).
  sim::RunMetrics run(const apps::TaskTrace& trace,
                      const TaskCosts* shared = nullptr);

  /// Online serving mode (docs/SERVING.md): instead of replaying a finite
  /// trace known up front, pulls work from a TaskSource between phases —
  /// jobs submitted while the loop is already running spawn tasks
  /// dynamically mid-run. The source is polled after every user phase and
  /// (blockingly) whenever the machine runs out of work; new roots are
  /// injected round-robin across the live nodes and rebalanced by the very
  /// next system phase. Returns when the source reports kDrained and
  /// everything injected has executed, with the same Table-I metrics as
  /// run(). Fault plans are not supported in online mode, and the source's
  /// job map (if any) replaces a set_job_map() binding for the run. The
  /// engine extends its own drain-cost table as the trace grows.
  ///
  /// Idle points bound the engine's state by live work: whenever a system
  /// phase leaves the machine empty before an idle poll, the engine counts
  /// the trace's non-local executions and calls source.retire(). A source
  /// that retires empties its trace, the per-task arrays are cleared
  /// (keeping their capacity) and task ids restart at 0; job indices and
  /// per-job counters carry on, so the metrics are those of a source that
  /// keeps every task. No phase list is kept (see phases()).
  sim::RunMetrics run_online(exec::TaskSource& source);

  /// Structured observability (docs/OBSERVABILITY.md): an optional
  /// TraceSession (Perfetto span export — system phases, user phases, task
  /// executions, collective retries, crash/recovery) and an optional
  /// InvariantMonitor (Theorem-1 balance, Theorem-2 locality, task
  /// conservation, checked every system phase). Both sinks are passive:
  /// runs with and without them attached produce bit-identical metrics.
  /// Pass {} to detach.
  void set_obs(const obs::Obs& o) { obs_ = o; }

  /// Counters / gauges / histograms of the last run — the engine's source
  /// of truth for RunMetrics' counter columns, plus per-phase snapshots
  /// and distributions RunMetrics cannot express (load imbalance, tasks
  /// moved, phase durations). Always maintained; reset at run start.
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }

  /// Optional fault injection: subsequent runs replay the plan's crashes
  /// and message drops. Pass nullptr to detach. The plan is
  /// read-only; re-running with the same plan reproduces identical
  /// metrics.
  void set_fault_plan(const sim::FaultPlan* plan) { fault_plan_ = plan; }

  /// Per-phase registry snapshots (labels "phase=N") power the Table-II
  /// style reports but append to the registry every system phase. Scale
  /// runs and the allocation regression test turn them off; metrics and
  /// results are unaffected (snapshots are a passive copy).
  void set_phase_snapshots(bool on) { phase_snapshots_ = on; }

  /// Test hook for the reference measuring pass, which re-simulates every
  /// node's full RTE drain (O(subtree) per phase). Every run uses the
  /// drain-sum pass over precomputed per-task drain costs (O(queue length)
  /// per phase) unless this is set. Both passes produce bit-identical
  /// results, which is what the tests that set this check; the pass a run
  /// used is recorded in RunMetrics::used_fast_measure.
  void set_full_measure_pass(bool on) { full_measure_ = on; }

  /// Optional per-task job ownership for multi-job runs
  /// (apps::MergedJobs::owner, values in [0, num_jobs)). While attached,
  /// subsequent runs account tasks, executed work, completion time,
  /// migrations and non-local executions PER JOB (RunMetrics::jobs plus
  /// "job.<i>.*" registry counters) — the per-tenant view
  /// RunMetrics::job_fairness() is computed from. When a telemetry bus is also
  /// attached, every user phase also hands its per-job executed counts to
  /// the subscribers (TelemetrySubscriber::on_job_phase). Purely
  /// observational either way: the run's own results and every
  /// pre-existing metric are bit-identical with or without a map. Pass
  /// nullptr to detach. `job_of` must outlive subsequent runs and have one
  /// entry per trace task.
  void set_job_map(const std::vector<i32>* job_of, i32 num_jobs) {
    job_of_ = job_of;
    num_jobs_ = job_of == nullptr ? 0 : num_jobs;
  }

  /// Test introspection: whether any system phase of the last run built
  /// the monitor's begin-of-phase snapshot (only invariant monitors need
  /// it; monitor-less runs must never pay for it).
  bool built_monitor_snapshots() const { return !before_offsets_.empty(); }

  /// Test introspection: how many times the last run's weighted replay
  /// moved a full region to the arena's end (always 0 in count mode).
  u64 grown_regions() const { return grown_regions_; }

  /// Test introspection: the tasks whose drain costs the last run computed
  /// itself (every task it saw when it filled its own table, 0 when it read
  /// a shared one).
  u64 costs_built() const { return costs_built_; }

  /// Test introspection: the most blocks any pass of the last run split
  /// its live ranks into (1 when every pass ran as one block). The count
  /// depends on the phases only, never on the host's CPUs.
  size_t max_blocks() const { return max_blocks_; }

  /// Test introspection: the most blocks of lanes any stage of the last
  /// run's transfer replay ran (1 when every system phase replayed its
  /// plan in order as one lane).
  size_t max_lane_blocks() const { return max_lane_blocks_; }

  /// Test hook: weighted replays reserve no room for region growth, so
  /// every growth stops its lane block until the arena grows between runs
  /// of the stage. Results are byte-identical either way.
  void set_zero_growth_room(bool on) { zero_growth_room_ = on; }

  /// Test hook: invoked at the end of every system phase with the phase
  /// index. The allocation regression test uses it to bracket a
  /// steady-state window; a plain function pointer so attaching and
  /// invoking it never allocates.
  using PhaseProbe = void (*)(void* ctx, u64 phase_idx);
  void set_phase_probe(PhaseProbe probe, void* ctx) {
    phase_probe_ = probe;
    probe_ctx_ = ctx;
  }

  /// Physical ids of the nodes still alive after the last run.
  const std::vector<NodeId>& live_nodes() const { return live_; }

  /// The system-phase samples of the last run(), as the bus receives them
  /// (Section 4's 15-Queens narrative: tasks scheduled and moved, comm
  /// steps, duration t1 - t0 per phase). Empty after run_online(): a
  /// serving session can run for hours, so its samples go to the bus only.
  const std::vector<obs::PhaseSample>& phases() const { return phases_; }

 private:
  struct NodeRt {
    // The node's RTE (ready to execute): rte_len tasks, the span [rte_begin,
    // rte_begin + rte_len - rte_spawned) of rte_ followed by [spawned,
    // spawned + rte_spawned). A system phase writes the span as [local
    // tasks][foreign tasks] and no spawned part. The commit pass leaves the
    // unexecuted rest of the span in place, [unexecuted local][unexecuted
    // foreign], and points `spawned` at the node's unexecuted spawned tasks
    // in its block's buffer; spawned tasks are local. So the next system
    // phase splits the leftover by position.
    const TaskId* spawned = nullptr;
    u32 rte_begin = 0;
    u32 rte_len = 0;
    u32 rte_local = 0;    // leading local tasks of the span
    u32 rte_spawned = 0;  // tasks of the spawned part
    // Ready to schedule: eager children, released or injected roots and
    // recovery re-injections; the one queue that needs origin lookups.
    std::vector<TaskId> rts;
    SimTime busy_ns = 0;
    SimTime ovh_ns = 0;
  };

  /// One rank's replay stacks, a region [base, base + cap) of arena_: the
  /// local stack grows up from `base`, the foreign stack down from
  /// `base + cap`. The top of each is its most recently pushed task.
  struct Region {
    size_t base = 0;
    size_t cap = 0;
    size_t local = 0;
    size_t foreign = 0;
  };

  /// One block of a per-rank pass (the user phase's measuring and commit
  /// passes; the system phase's load collection, monitor snapshot,
  /// partition and RTE write): a contiguous range of live ranks that runs
  /// as one unit of the host pool. Blocks share nothing but disjoint
  /// per-task and per-node entries; the rest of their output is merged in
  /// block order (= rank order). Each block has its own cache line, as its
  /// thread updates it per node.
  struct alignas(64) Block {
    u32 rank_begin = 0;
    u32 rank_end = 0;
    // Lazy spawns: the unexecuted spawned tasks of the block's committed
    // nodes, in rank order, then the running node's queue. They stay here
    // until the next system phase has read them.
    std::vector<TaskId> spawned;
    u64 executed = 0;         // tasks the block committed this phase
    SimTime phase_end = 0;    // latest stop or quiescence among its nodes
    size_t tasks = 0;         // tasks its ranks hold at the load collection
    size_t offset = 0;        // where its ranks' output starts (rank order)
  };

  /// One block of the lane pass (the transfer replay): the entries of a
  /// contiguous range of one stage's lanes. Lanes of a stage share no
  /// node, so blocks touch disjoint regions and migration times.
  /// Cache-line aligned like Block: its cursor moves per transfer.
  struct alignas(64) LaneBlock {
    size_t next = 0;     // the next entry to replay
    size_t end = 0;      // one past the block's last entry
    u64 moved = 0;       // tasks the block moved
    u64 grown = 0;       // regions it grew
    size_t stalled = 0;  // room the growth it stopped before asked for
  };

  /// The stages and lanes a system phase replays: the plan's lanes when
  /// the phase splits, else the whole plan as one stage of one lane
  /// (ScheduleResult's layout).
  struct Lanes {
    const u32* stage_ends = nullptr;
    size_t stages = 0;
    const u32* lane_ends = nullptr;
    const u32* index = nullptr;  // null: entries are transfer indices
  };

  /// How simulate_user_phase treats the node's state.
  enum class PhaseMode {
    kMeasure,  ///< scratch state, returns the drain time only
    kCommit,   ///< commits execution, spawns and queue updates
    kDoomed,   ///< scratch state of a node that crashes at `stop_t`:
               ///< executions are tallied as lost, nothing is committed
  };

  /// Simulates one node's user phase over its RTE span plus the tasks it
  /// spawns, in `block`'s scratch. `stop_t` is the time the node learns of
  /// the phase transfer — or dies (kDoomed): it finishes the task in
  /// flight, then stops. kCommit leaves the node's unexecuted spawned tasks
  /// at the end of the block's buffer (the caller points the node there
  /// once the block is done) and counts its executions in the block; the
  /// other modes leave the buffer as they found it. In kDoomed mode
  /// `lost_execs` / `lost_work_ns` receive the executions whose results
  /// die with the node.
  SimTime simulate_user_phase(NodeId node, SimTime start_t, SimTime stop_t,
                              PhaseMode mode, Block& block,
                              u64* lost_execs = nullptr,
                              SimTime* lost_work_ns = nullptr);
  /// Splits the live ranks into the blocks (blocks_[0, k)) of a pass over
  /// `tasks` queued tasks and returns k: one block unless the run may split
  /// (split_ok_) and `tasks` reaches kBlockMinTasks.
  size_t plan_blocks(size_t tasks);
  /// Runs fn(block) for blocks_[0, k) on the host pool.
  template <typename Fn>
  void for_each_block(size_t k, Fn&& fn);
  /// Sets each of blocks_[0, k)'s `offset` to the sum of count(r) over the
  /// ranks before it and returns the sum over all ranks: the rank-order
  /// offsets of an output the blocks then write.
  template <typename Count>
  size_t block_offsets(size_t k, Count&& count);
  /// Runs fn(lane_block, transfer) over stage `stage` of `lanes`, split
  /// into at most kMaxBlocks equal ranges of lanes (lane_blocks_[0, m)) on
  /// the host pool, each range's transfers in lane order, and returns m.
  /// fn returns false to stop its block before that transfer; the pass
  /// then grows the arena past every claim and resumes the stopped blocks
  /// there.
  template <typename Fn>
  size_t for_each_lane_block(const sched::ScheduleResult& plan,
                             const Lanes& lanes, size_t stage, Fn&& fn);

  /// System-phase replay over the phase's blocks_[0, k): moves every
  /// rank's RTS and leftover RTE into its arena region, replays the plan's
  /// transfers there, writes each rank's new RTE span and charges it
  /// `step_time` plus its migration time. Returns the number of task moves.
  u64 replay_plan(const sched::ScheduleResult& plan, size_t k,
                  SimTime step_time);
  /// Sizes one arena region per rank from the plan, walked once in plan
  /// order (count mode: each rank's peak holdings, exactly; weighted mode:
  /// its peak work at the phase's mean task weight), from the floors the
  /// load collection set.
  void size_regions(const sched::ScheduleResult& plan, size_t k);
  /// Moves the top `count` tasks of src (foreign stack first, then local)
  /// onto dst's stacks by origin. dst must have room for them.
  void move_tasks(Region& src, Region& dst, NodeId to_phys, size_t count);
  /// Makes room in `region` for `count` more tasks (weighted mode only):
  /// moves it to a bump-allocated range of the arena with at least double
  /// capacity. Returns false, claiming nothing usable, when the phase's
  /// room is exhausted; the block then stops before the transfer.
  bool make_room(Region& region, size_t count, LaneBlock& block);
  /// Grows the arena to at least `need` slots, keeping its first `keep`.
  void reserve_arena(size_t need, size_t keep);

  void release_segment_roots(u32 segment);
  SimTime system_phase(SimTime t);
  SimTime user_phase(SimTime t);

  /// Shared bracket of run() and run_online(): per-run state reset (the
  /// run reads `shared` when given, else fills its own table) /
  /// derivation of the final RunMetrics once the phase loop terminated.
  void init_run_state(const apps::TaskTrace& trace, const TaskCosts* shared);
  sim::RunMetrics finalize_run(SimTime t);
  bool machine_empty() const;

  /// One TaskSource poll (online mode): advances the clock by the source's
  /// reported idle wait, syncs engine state over newly appended tasks and
  /// injects the new roots. Returns true once the source is drained.
  bool online_poll(exec::TaskSource& source, SimTime* t, bool idle);
  /// Grows origin_/exec_node_/sequential_ns/the cost table/job arrays over
  /// tasks the source appended since the last sync.
  void grow_online_state(const exec::TaskSource& source);
  /// Idle point of run_online: folds the trace's non-local executions into
  /// the run totals, then asks the source to retire its tasks and, if it
  /// does, clears the per-task arrays.
  void retire_online(exec::TaskSource& source);
  /// Counts non-local executions (total and per job) of tasks
  /// [folded_, trace size) into nonlocal_folded_ / job_nonlocal_.
  void fold_nonlocal();

  /// Recovery line: marks pending deaths permanent, rebuilds the live
  /// view / scheduler / collectives, re-injects checkpointed tasks of the
  /// dead onto their nearest survivors. Returns the extra system-phase
  /// time spent on membership agreement.
  SimTime recover(SimTime t);

  sched::ParallelScheduler& active_scheduler() {
    return degraded_sched_ ? *degraded_sched_ : scheduler_;
  }
  const topo::Topology& base_topology() const { return scheduler_.topology(); }
  /// Hop distance between two live physical nodes on the current machine.
  i32 machine_distance(NodeId phys_a, NodeId phys_b) const;
  i32 machine_diameter() const;
  coll::Collectives& detection_collectives();
  NodeId nearest_live(NodeId phys) const;

  sched::ParallelScheduler& scheduler_;
  sim::CostModel cost_;
  RipsConfig config_;

  const apps::TaskTrace* trace_ = nullptr;
  std::vector<NodeRt> nodes_;
  // The RTE of every node, one span each (NodeRt::rte_begin), in rank
  // order. A system phase writes rte_ once; the commit pass reads it and
  // leaves the unexecuted tasks in place, where the next system phase
  // reads them.
  std::vector<TaskId> rte_;
  // The blocks of the current pass; never shrunk, so a warm run reuses
  // their buffers.
  std::vector<Block> blocks_;
  // Whether this run's passes may use more than one block. Passes
  // that write shared state per task keep one: a job map (per-job
  // counters), a TraceSession (task spans), a fault plan (doomed nodes'
  // incidents in rank order, LiveView's lazy distance rows) and the full
  // measuring pass.
  bool split_ok_ = false;
  size_t max_blocks_ = 1;  // the widest split of this run
  size_t max_lane_blocks_ = 1;  // the widest lane split of this run
  std::vector<LaneBlock> lane_blocks_;  // the current lane pass's blocks
  std::vector<NodeId> origin_;
  std::vector<NodeId> exec_node_;
  u64 executed_total_ = 0;
  u32 released_segments_ = 0;
  std::vector<obs::PhaseSample> phases_;  // system phases of a batch run
  sim::RunMetrics metrics_;

  // Multi-job accounting (set_job_map). job_accounting_ is on for the
  // whole run whenever a map is attached — independent of any bus, so
  // RunMetrics::jobs and the "job.<i>.*" counters are identical with and
  // without telemetry. job_exec_ is the current user phase's per-job
  // breakdown for the bus (empty without a map or a bus).
  const std::vector<i32>* job_of_ = nullptr;
  i32 num_jobs_ = 0;
  std::vector<u64> job_exec_;
  bool job_accounting_ = false;
  std::vector<u64> job_tasks_;        // cumulative executions per job
  std::vector<SimTime> job_work_ns_;  // cumulative executed work per job
  std::vector<SimTime> job_done_ns_;  // latest task end per job
  std::vector<u64> job_migrated_;     // task moves per job
  std::vector<u64> job_nonlocal_;     // folded non-local executions per job

  // Online mode (run_online) bookkeeping.
  bool online_ = false;               // the current run is run_online
  std::vector<TaskId> online_roots_;  // per-poll scratch
  size_t online_synced_ = 0;          // tasks synced into engine state
  u64 online_rr_ = 0;                 // round-robin root placement cursor
  u64 retired_ = 0;                   // executed tasks the source dropped
  // Non-local executions of tasks [0, folded_) of the current trace, and
  // of every retired task, counted by fold_nonlocal.
  size_t folded_ = 0;
  u64 nonlocal_folded_ = 0;

  // --- steady-state scratch arenas ---------------------------------------
  // Every per-phase working vector lives here and is overwritten in place:
  // after the first few phases a system phase performs zero heap
  // allocations (with monitors detached and phase snapshots off), which is
  // what lets the engine scale to thousands of simulated nodes. Enforced
  // by the allocation-counter regression test (tests/test_alloc.cpp).

  /// Per-transfer payloads, kept only while tracing so the send/recv
  /// instants can carry matching correlation ids.
  struct TracedTransfer {
    NodeId from;
    NodeId to;
    i64 sent;
  };
  std::vector<i64> load_;            // per-rank loads (system phase)
  // Replay arena: one region per rank (regions_), laid out by
  // size_regions in [0, arena_used_). Weighted mode reserves growth room
  // up to arena_limit_ before the partition and moves a region that fills
  // to a range bump-allocated at arena_top_ (make_room), so no lane block
  // waits for another and no task is copied by a reallocation mid-replay.
  // Addressed by index, never shrunk (a warm run reuses it) and never
  // zeroed: a count-mode region is sized to its rank's peak holdings, so a
  // phase of many relays needs an arena many times its task count.
  std::unique_ptr<TaskId[]> arena_;
  size_t arena_cap_ = 0;
  size_t arena_used_ = 0;
  size_t arena_limit_ = 0;
  std::atomic<size_t> arena_top_{0};
  bool zero_growth_room_ = false;
  u64 grown_regions_ = 0;  // regions make_room moved this run
  std::vector<Region> regions_;
  std::vector<i64> hold_;            // size_regions: running holdings
  std::vector<SimTime> migration_;   // per-rank migration CPU time
  std::vector<TracedTransfer> traced_;
  std::vector<SimTime> drain_;       // user phase: per-node drain times
  std::vector<SimTime> crash_eff_;   // user phase: effective crash times
  std::vector<char> doomed_;         // user phase: admitted crashes
  // Monitor begin-of-phase snapshot as flat CSR (offsets + one backing
  // array), built per phase ONLY while a monitor is attached.
  std::vector<size_t> before_offsets_;
  std::vector<TaskId> before_tasks_;
  // Conservation-scan scratch: start rank per task id, kUnseenRank when
  // the task was not on any queue at phase begin. Grown lazily to trace
  // size on first monitored phase; entries touched by a scan are restored
  // to kUnseenRank before it returns, so each phase is O(snapshot) with no
  // hashing (replaces the per-phase unordered_map).
  std::vector<i32> start_rank_;

  // --- drain-cost fast path ----------------------------------------------
  // The measuring pass sums each queue's drain costs (TaskCosts): exact
  // i64 arithmetic and order independence make it bit-identical to the
  // full simulation. Crashes and message drops never touch the undisturbed
  // drain times, so fault runs use it too. A run reads costs_: a table
  // lent to run() or own_costs_, which the engine fills (and, online,
  // extends and empties at retirement) with TaskCosts' backward sweep.
  // Nothing else is stored per task: weighted loads and the weighted
  // replay read TraceTask::work, and the commit loop reads the TraceTask
  // anyway and calls cost_.work_time.
  const TaskCosts* costs_ = nullptr;
  TaskCosts own_costs_;
  u64 costs_built_ = 0;  // tasks the last run filled own_costs_ with
  bool full_measure_ = false;
  bool phase_snapshots_ = true;
  PhaseProbe phase_probe_ = nullptr;
  void* probe_ctx_ = nullptr;

  // --- observability -----------------------------------------------------
  // The registry is the engine's counter store (RunMetrics is derived from
  // it at the end of run()); the cached pointers make each increment one
  // add through a pointer — the same cost as the struct fields they
  // replaced. obs_ carries the optional external sinks.

  /// Theorem-2 bookkeeping for one system phase (monitor-only cost).
  /// Reads the begin-of-phase CSR snapshot (before_offsets_/before_tasks_)
  /// that system_phase builds only while a monitor is attached.
  void check_phase_invariants(u64 phase, const std::vector<i64>& load,
                              const sched::ScheduleResult& plan, i64 total);

  obs::Obs obs_;
  obs::MetricsRegistry registry_;
  obs::Counter* c_tasks_executed_;
  obs::Counter* c_tasks_nonlocal_;
  obs::Counter* c_tasks_migrated_;
  obs::Counter* c_msg_sent_;
  obs::Counter* c_phase_system_;
  obs::Counter* c_phase_user_;
  obs::Counter* c_crashes_;
  obs::Counter* c_recovery_phases_;
  obs::Counter* c_reinjected_;
  obs::Counter* c_reexecuted_;
  obs::Counter* c_dropped_msgs_;
  obs::Counter* c_msg_retries_;
  obs::Counter* c_lost_work_ns_;
  obs::Counter* c_recovery_time_ns_;
  obs::Gauge* g_rts_total_;
  obs::Gauge* g_live_nodes_;
  obs::Histogram* h_phase_imbalance_;
  obs::Histogram* h_phase_moved_;
  obs::Histogram* h_phase_dur_us_;
  obs::Histogram* h_uphase_tasks_;

  // --- fault tolerance ---------------------------------------------------
  struct PendingDeath {
    NodeId node = kInvalidNode;
    SimTime at = 0;
    u64 lost_execs = 0;
    SimTime lost_work_ns = 0;
  };

  const sim::FaultPlan* fault_plan_ = nullptr;
  std::optional<sim::FaultInjector> injector_;  // rebuilt per run
  std::vector<char> alive_;               // per physical node
  std::vector<NodeId> live_;              // rank -> physical, sorted
  std::vector<SimTime> crash_time_;       // per physical node, kNever if none
  std::vector<SimTime> dead_at_;          // per physical node, kNever alive
  // RTE assignment at the last system phase as flat CSR over ALL physical
  // nodes (dead nodes own empty spans): ckpt_tasks_[ckpt_offsets_[p] ..
  // ckpt_offsets_[p+1]) is node p's checkpointed queue. Rebuilt in place
  // from the RTE spans at the end of every system phase — no steady-state
  // allocation.
  std::vector<size_t> ckpt_offsets_;
  std::vector<TaskId> ckpt_tasks_;
  std::vector<PendingDeath> dead_pending_;
  std::unique_ptr<topo::LiveView> live_view_;    // null while all alive
  std::unique_ptr<sched::ParallelScheduler> degraded_sched_;
  std::unique_ptr<coll::Collectives> live_coll_;
  std::unique_ptr<coll::Collectives> base_coll_;
  u64 coll_op_counter_ = 0;
  i64 mig_corr_ = 0;  // next migration send/recv correlation id (per run)
};

}  // namespace rips::core
