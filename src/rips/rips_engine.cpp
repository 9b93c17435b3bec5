#include "rips/rips_engine.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <utility>

#include "exec/task_source.hpp"
#include "util/check.hpp"
#include "util/host_pool.hpp"
#include "util/simd.hpp"

namespace rips::core {

namespace {
constexpr SimTime kNever = std::numeric_limits<SimTime>::max() / 4;

// Fault tolerance (docs/FAULTS.md). Heartbeat / acknowledgement timeout:
// survivors declare a silent node dead after this long without its
// expected signal; also the cost of each retransmission window of the
// detection collectives.
constexpr SimTime kFaultTimeoutNs = 2'000'000;
// Retransmissions per collective message before the peer is suspected dead.
constexpr i32 kFaultMaxRetries = 3;

// Blocks (docs/PERFORMANCE.md, "Threads inside a run"): a per-rank pass
// over at least kBlockMinTasks queued tasks splits the live ranks into
// min(kMaxBlocks, ranks) contiguous blocks. The split depends on the phase
// only, never on how many host threads run the blocks.
constexpr size_t kBlockMinTasks = 16384;
constexpr size_t kMaxBlocks = 16;

// Weighted load of a queue: its tasks' summed TraceTask::work. Integer
// sums are exact in any order, so every build gets the same bits.
i64 work_sum(const apps::TaskTrace& trace, const TaskId* tasks, size_t n) {
  u64 sum = 0;
  for (size_t i = 0; i < n; ++i) sum += trace.task(tasks[i]).work;
  return static_cast<i64>(sum);
}
}  // namespace

RipsEngine::RipsEngine(sched::ParallelScheduler& scheduler,
                       const sim::CostModel& cost, RipsConfig config)
    : scheduler_(scheduler),
      cost_(cost),
      config_(config),
      c_tasks_executed_(&registry_.counter("tasks.executed")),
      c_tasks_nonlocal_(&registry_.counter("tasks.nonlocal")),
      c_tasks_migrated_(&registry_.counter("tasks.migrated")),
      c_msg_sent_(&registry_.counter("msg.sent")),
      c_phase_system_(&registry_.counter("phase.system")),
      c_phase_user_(&registry_.counter("phase.user")),
      c_crashes_(&registry_.counter("fault.crashes")),
      c_recovery_phases_(&registry_.counter("fault.recovery_phases")),
      c_reinjected_(&registry_.counter("fault.tasks_reinjected")),
      c_reexecuted_(&registry_.counter("fault.tasks_reexecuted")),
      c_dropped_msgs_(&registry_.counter("fault.dropped_messages")),
      c_msg_retries_(&registry_.counter("fault.message_retries")),
      c_lost_work_ns_(&registry_.counter("fault.lost_work_ns")),
      c_recovery_time_ns_(&registry_.counter("fault.recovery_time_ns")),
      g_rts_total_(&registry_.gauge("phase.rts_total")),
      g_live_nodes_(&registry_.gauge("machine.live_nodes")),
      h_phase_imbalance_(&registry_.histogram("phase.load_imbalance",
                                              obs::pow2_bounds(1 << 20))),
      h_phase_moved_(&registry_.histogram("phase.tasks_moved",
                                          obs::pow2_bounds(1 << 20))),
      h_phase_dur_us_(&registry_.histogram("phase.duration_us",
                                           obs::pow2_bounds(1 << 24))),
      h_uphase_tasks_(&registry_.histogram("user_phase.tasks",
                                           obs::pow2_bounds(1 << 24))) {}

NodeId RipsEngine::nearest_live(NodeId phys) const {
  RIPS_CHECK(!live_.empty());
  NodeId best = live_.front();
  i32 best_d = std::numeric_limits<i32>::max();
  for (NodeId cand : live_) {
    const i32 d = base_topology().distance(phys, cand);
    if (d < best_d) {
      best_d = d;
      best = cand;  // live_ is sorted, so ties pick the smallest id
    }
  }
  return best;
}

i32 RipsEngine::machine_distance(NodeId phys_a, NodeId phys_b) const {
  if (live_view_ != nullptr) {
    return live_view_->distance(live_view_->rank_of(phys_a),
                                live_view_->rank_of(phys_b));
  }
  return base_topology().distance(phys_a, phys_b);
}

i32 RipsEngine::machine_diameter() const {
  return live_view_ != nullptr ? live_view_->diameter()
                               : base_topology().diameter();
}

coll::Collectives& RipsEngine::detection_collectives() {
  if (live_view_ != nullptr) return *live_coll_;
  if (base_coll_ == nullptr) {
    base_coll_ = std::make_unique<coll::Collectives>(base_topology());
  }
  return *base_coll_;
}

void RipsEngine::release_segment_roots(u32 segment) {
  const auto& roots = trace_->roots(segment);
  if (segment == 0) {
    // Sequential root expansion: everything materializes on node 0.
    for (TaskId r : roots) {
      origin_[static_cast<size_t>(r)] = 0;
      nodes_[0].rts.push_back(r);
      nodes_[0].ovh_ns += cost_.spawn_ns;
    }
  } else {
    // Data affinity: a segment root lives where the corresponding root of
    // the previous segment executed. A dead home falls back to its nearest
    // survivor (the descriptor is replicated; only the placement hint dies
    // with the node).
    const auto& prev = trace_->roots(segment - 1);
    for (size_t i = 0; i < roots.size(); ++i) {
      NodeId home = live_.front();
      if (!prev.empty()) {
        home = exec_node_[static_cast<size_t>(prev[i % prev.size()])];
        if (home == kInvalidNode) {
          home = live_.front();
        } else if (!alive_[static_cast<size_t>(home)]) {
          home = nearest_live(home);
        }
      }
      origin_[static_cast<size_t>(roots[i])] = home;
      nodes_[static_cast<size_t>(home)].rts.push_back(roots[i]);
      nodes_[static_cast<size_t>(home)].ovh_ns += cost_.spawn_ns;
    }
  }
  released_segments_ = segment + 1;
}

SimTime RipsEngine::recover(SimTime t) {
  SimTime max_death = 0;
  for (const PendingDeath& d : dead_pending_) {
    alive_[static_cast<size_t>(d.node)] = 0;
    dead_at_[static_cast<size_t>(d.node)] = d.at;
    max_death = std::max(max_death, d.at);
    c_crashes_->add();
    c_reexecuted_->add(d.lost_execs);
    c_lost_work_ns_->add(static_cast<u64>(d.lost_work_ns));
    NodeRt& dead = nodes_[static_cast<size_t>(d.node)];
    dead.rte_len = dead.rte_local = dead.rte_spawned = 0;
    dead.rts.clear();
  }

  // Rebuild the degraded machine first: adopters are chosen among the
  // survivors only, and the scheduler must match the new node count.
  live_.erase(std::remove_if(live_.begin(), live_.end(),
                             [&](NodeId p) {
                               return alive_[static_cast<size_t>(p)] == 0;
                             }),
              live_.end());
  RIPS_CHECK_MSG(!live_.empty(), "every node crashed; nothing can recover");
  live_view_ = std::make_unique<topo::LiveView>(base_topology(), live_);
  live_coll_ = std::make_unique<coll::Collectives>(*live_view_);
  degraded_sched_ =
      sched::any_size_mesh_factory()(static_cast<i32>(live_.size()));
  RIPS_CHECK_MSG(degraded_sched_ != nullptr &&
                     degraded_sched_->topology().size() ==
                         static_cast<i32>(live_.size()),
                 "scheduler factory produced the wrong machine size");

  // Re-inject every dead node's checkpoint — its RTE assignment at the last
  // recovery line — onto the survivor nearest to it in the base network
  // (that node holds the replicated descriptors at minimal distance). The
  // checkpoint CSR was built at the end of the previous system phase, when
  // the node was still live; the next rebuild gives dead nodes empty
  // spans, so a span is never re-injected twice.
  u64 reinjected = 0;
  for (const PendingDeath& d : dead_pending_) {
    const auto p = static_cast<size_t>(d.node);
    const size_t begin = ckpt_offsets_[p];
    const size_t end = ckpt_offsets_[p + 1];
    if (end > begin) {
      const NodeId adopter = nearest_live(d.node);
      auto& dst = nodes_[static_cast<size_t>(adopter)];
      dst.rts.insert(dst.rts.end(), ckpt_tasks_.begin() + begin,
                     ckpt_tasks_.begin() + end);
      dst.ovh_ns += cost_.recv_time(static_cast<i64>(end - begin));
      c_reinjected_->add(end - begin);
      reinjected += end - begin;
    }
  }
  dead_pending_.clear();

  // Membership agreement: survivors all-reduce the suspect set over the
  // degraded network before rescheduling.
  const SimTime extra = 2 *
                        static_cast<SimTime>(live_view_->diameter()) *
                        cost_.info_step_ns;
  c_recovery_phases_->add();
  c_recovery_time_ns_->add(static_cast<u64>(extra));
  g_live_nodes_->set(static_cast<i64>(live_.size()));
  obs::TelemetryEvent ev;
  ev.kind = obs::TelemetryEvent::Kind::kRecovery;
  ev.t = t;
  ev.dur_ns = extra;
  ev.phase = c_phase_system_->value();
  ev.arg = static_cast<i64>(reinjected);
  ev.detail = "recovery line rebuilt";
  obs_.incident(ev);
  return extra;
}

size_t RipsEngine::plan_blocks(size_t tasks) {
  const size_t n = live_.size();
  const size_t k =
      split_ok_ && tasks >= kBlockMinTasks ? std::min(kMaxBlocks, n) : 1;
  if (blocks_.size() < k) blocks_.resize(k);
  max_blocks_ = std::max(max_blocks_, k);
  for (size_t b = 0; b < k; ++b) {
    blocks_[b].rank_begin = static_cast<u32>(b * n / k);
    blocks_[b].rank_end = static_cast<u32>((b + 1) * n / k);
  }
  return k;
}

template <typename Fn>
void RipsEngine::for_each_block(size_t k, Fn&& fn) {
  auto body = [&](size_t b) { fn(blocks_[b]); };
  host_pool::run(k, body);
}

template <typename Count>
size_t RipsEngine::block_offsets(size_t k, Count&& count) {
  for_each_block(k, [&](Block& block) {
    size_t sum = 0;
    for (u32 r = block.rank_begin; r < block.rank_end; ++r) sum += count(r);
    block.offset = sum;
  });
  size_t total = 0;
  for (size_t b = 0; b < k; ++b) {
    total += std::exchange(blocks_[b].offset, total);
  }
  return total;
}

template <typename Fn>
size_t RipsEngine::for_each_lane_block(const sched::ScheduleResult& plan,
                                       const Lanes& lanes, size_t stage,
                                       Fn&& fn) {
  const auto lane_start = [&](size_t lane) -> size_t {
    return lane == 0 ? 0 : lanes.lane_ends[lane - 1];
  };
  const size_t first = stage == 0 ? 0 : lanes.stage_ends[stage - 1];
  const size_t count = lanes.stage_ends[stage] - first;
  if (count == 0) return 0;
  const size_t m = std::min(kMaxBlocks, count);
  if (lane_blocks_.size() < m) lane_blocks_.resize(m);
  max_lane_blocks_ = std::max(max_lane_blocks_, m);
  for (size_t b = 0; b < m; ++b) {
    lane_blocks_[b] = LaneBlock{};
    lane_blocks_[b].next = lane_start(first + b * count / m);
    lane_blocks_[b].end = lane_start(first + (b + 1) * count / m);
  }
  const sched::Transfer* transfers = plan.transfers.data();
  auto body = [&](size_t b) {
    LaneBlock& block = lane_blocks_[b];
    for (; block.next < block.end; ++block.next) {
      const size_t i =
          lanes.index != nullptr ? lanes.index[block.next] : block.next;
      if (!fn(block, transfers[i])) return;
    }
  };
  while (true) {
    host_pool::run(m, body);
    size_t stalled = 0;
    for (size_t b = 0; b < m; ++b) {
      stalled += std::exchange(lane_blocks_[b].stalled, 0);
    }
    if (stalled == 0) return m;
    // Out of room: every region lies below the old limit. Grow the arena
    // past every claim so far, failed ones included, plus what the stopped
    // blocks asked for; each resumes at the transfer it stopped before.
    const size_t keep = arena_limit_;
    arena_limit_ = arena_top_.load(std::memory_order_relaxed) + stalled;
    reserve_arena(arena_limit_, keep);
  }
}

SimTime RipsEngine::system_phase(SimTime t) {
  SimTime recovery_extra = 0;
  if (!dead_pending_.empty()) recovery_extra = recover(t);
  const i32 n = static_cast<i32>(live_.size());

  // Collect: leftover RTE tasks are rescheduled together with the newly
  // generated ones (Section 2). A node holds its RTS followed by its
  // leftover span, and every pass below reads both in place.
  u64 total = 0;
  for (NodeId phys : live_) {
    const NodeRt& node = nodes_[static_cast<size_t>(phys)];
    total += node.rts.size() + node.rte_len;
  }

  if (total == 0 && released_segments_ < trace_->num_segments()) {
    // Segment barrier: this same system phase schedules the next segment.
    release_segment_roots(released_segments_);
    total = 0;
    for (NodeId phys : live_) {
      total += nodes_[static_cast<size_t>(phys)].rts.size();
    }
  }

  // The load collection runs on the blocks a user phase of this size
  // would use.
  const size_t k = plan_blocks(total);

  // Counts (the paper's choice) or work totals (weighted mode: what
  // perfect grain estimation would let the scheduler balance). Loads are
  // indexed by logical rank; rank r is physical node live_[r]. Weighted
  // loads sum the trace's TraceTask::work over each queue. The same pass
  // lays each rank's replay floor for size_regions: its holdings, in
  // tasks (region capacity) and in load (hold_).
  load_.resize(static_cast<size_t>(n));
  hold_.resize(static_cast<size_t>(n));
  regions_.resize(static_cast<size_t>(n));
  for_each_block(k, [&](Block& block) {
    block.tasks = 0;
    for (u32 r = block.rank_begin; r < block.rank_end; ++r) {
      const NodeRt& node = nodes_[static_cast<size_t>(live_[r])];
      const size_t tasks = node.rts.size() + node.rte_len;
      load_[r] = config_.weighted
                     ? work_sum(*trace_, node.rts.data(), node.rts.size()) +
                           work_sum(*trace_, rte_.data() + node.rte_begin,
                                    node.rte_len - node.rte_spawned) +
                           work_sum(*trace_, node.spawned, node.rte_spawned)
                     : static_cast<i64>(tasks);
      hold_[r] = load_[r];
      regions_[r].cap = tasks;
      block.tasks += tasks;
    }
  });
  // The plan is borrowed from the scheduler's pooled result; it stays valid
  // until the next schedule() call, which only happens next phase.
  const sched::ScheduleResult& plan = active_scheduler().schedule(load_);

  // Monitor-only cost: the invariant checks need to know where every task
  // started the phase, which the replay below destroys. The snapshot is a
  // flat CSR so detached monitors cost nothing and attached ones cost no
  // steady-state allocation; each block writes its ranks' part at the
  // offset its predecessors' task counts give.
  const u64 phase_idx = c_phase_system_->value();
  const bool monitoring = obs_.monitor != nullptr && !config_.weighted;
  if (monitoring) {
    size_t at = 0;
    for (size_t b = 0; b < k; ++b) {
      blocks_[b].offset = at;
      at += blocks_[b].tasks;
    }
    before_offsets_.resize(static_cast<size_t>(n) + 1);
    before_offsets_[static_cast<size_t>(n)] = at;
    before_tasks_.resize(at);
    for_each_block(k, [&](const Block& block) {
      TaskId* out = before_tasks_.data() + block.offset;
      for (u32 r = block.rank_begin; r < block.rank_end; ++r) {
        const NodeRt& node = nodes_[static_cast<size_t>(live_[r])];
        const TaskId* span = rte_.data() + node.rte_begin;
        before_offsets_[r] = static_cast<size_t>(out - before_tasks_.data());
        out = std::copy(node.rts.begin(), node.rts.end(), out);
        out = std::copy(span, span + node.rte_len - node.rte_spawned, out);
        out = std::copy(node.spawned, node.spawned + node.rte_spawned, out);
      }
    });
  }

  // Cost: lock-step scheduling rounds (cheap scalar-only information steps
  // plus full task-payload steps — the paper's "each communication step to
  // migrate tasks takes about 1 ms") plus the slowest node's migration CPU
  // time; the phase is synchronous, everyone leaves it together.
  const SimTime step_time = plan.info_steps * cost_.info_step_ns +
                            plan.transfer_steps * cost_.step_ns;
  const u64 moved = replay_plan(plan, k, step_time);
  const SimTime max_migration =
      simd::minmax_i64(migration_.data(), migration_.size()).max;
  const SimTime duration = step_time + max_migration + recovery_extra;

  // Recovery line: the post-scheduling RTE assignment is exactly what a
  // survivor can replay for a node that dies before the next system phase.
  // Rebuilt in place over ALL physical nodes — dead ones own empty spans,
  // which also retires any span recover() just re-injected.
  if (injector_.has_value()) {
    const size_t n_phys = nodes_.size();
    ckpt_offsets_.resize(n_phys + 1);
    ckpt_tasks_.clear();
    ckpt_offsets_[0] = 0;
    for (size_t p = 0; p < n_phys; ++p) {
      if (alive_[p]) {
        const TaskId* span = rte_.data() + nodes_[p].rte_begin;
        ckpt_tasks_.insert(ckpt_tasks_.end(), span, span + nodes_[p].rte_len);
      }
      ckpt_offsets_[p + 1] = ckpt_tasks_.size();
    }
  }

  c_phase_system_->add();
  g_rts_total_->set(static_cast<i64>(total));
  obs::PhaseSample sample;
  sample.kind = obs::PhaseKind::kSystem;
  sample.phase = phase_idx;
  sample.t0 = t;
  sample.t1 = t + duration;
  sample.tasks = total;
  sample.moved = moved;
  sample.imbalance = sched::load_imbalance(load_);
  sample.comm_steps = plan.comm_steps;
  sample.rts_total = static_cast<i64>(total);
  sample.live_nodes = n;
  sample.executed_total = executed_total_;
  h_phase_imbalance_->observe(sample.imbalance);
  h_phase_moved_->observe(static_cast<i64>(moved));
  h_phase_dur_us_->observe(duration / 1000);
  if (!online_) phases_.push_back(sample);
  obs_.phase(sample);
  if (phase_snapshots_) {
    registry_.snapshot("phase=" + std::to_string(phase_idx));
  }
  if (obs_.trace != nullptr) {
    // Children of the system-phase span: the recovery span (if any) was
    // emitted by recover() at [t, t+recovery_extra]; scheduling and
    // migration follow it.
    const SimTime sched_t0 = t + recovery_extra;
    obs_.trace->span(kInvalidNode, obs::record::kSchedule, sched_t0,
                     sched_t0 + step_time, plan.comm_steps);
    if (max_migration > 0) {
      obs_.trace->span(kInvalidNode, obs::record::kMigrate,
                       sched_t0 + step_time,
                       sched_t0 + step_time + max_migration,
                       static_cast<i64>(moved));
    }
    // One send/recv instant pair per non-empty transfer, sharing a "corr"
    // id so trace analysis can rebuild the migration edges. The phase is
    // synchronous: sends fire when scheduling ends, receives when the
    // slowest migrator finishes.
    const SimTime mig_t0 = sched_t0 + step_time;
    for (const TracedTransfer& tt : traced_) {
      const i64 corr = mig_corr_++;
      obs_.trace->instant(tt.from, obs::record::kSend, mig_t0, tt.sent, corr);
      obs_.trace->instant(tt.to, obs::record::kRecv, mig_t0 + max_migration,
                          tt.sent, corr);
    }
  }
  if (monitoring) {
    const size_t violations_before = obs_.monitor->violations().size();
    check_phase_invariants(phase_idx, load_, plan, static_cast<i64>(total));
    const size_t violations_after = obs_.monitor->violations().size();
    if (violations_after > violations_before) {
      const obs::InvariantMonitor::Violation& v =
          obs_.monitor->violations().back();
      obs::TelemetryEvent ev;
      ev.kind = obs::TelemetryEvent::Kind::kMonitorViolation;
      ev.t = t + duration;
      ev.node = v.node;
      ev.phase = phase_idx;
      ev.arg = static_cast<i64>(violations_after - violations_before);
      // TelemetryEvent keeps static strings only — map the violation's
      // monitor name back to its literal.
      ev.detail = v.monitor == "theorem1"   ? "theorem1"
                  : v.monitor == "theorem2" ? "theorem2"
                                            : "conservation";
      obs_.incident(ev);
    }
  }
  if (phase_probe_ != nullptr) phase_probe_(probe_ctx_, phase_idx);
  return t + duration;
}

void RipsEngine::size_regions(const sched::ScheduleResult& plan, size_t k) {
  // Count mode sizes every region to its rank's peak holdings, exactly, so
  // no region ever fills; following the holdings also checks the plan
  // before any task moves. Weighted mode knows a transfer's task count
  // only while it runs: its regions start at the peak work over the mean
  // task weight and grow on demand (make_room). One walk in plan order at
  // about 2 ns per transfer: on the plan's lanes it gained nothing, as
  // the pool dispatches took back what the threads saved.
  if (!config_.weighted) {
    for (const sched::Transfer& tr : plan.transfers) {
      i64& from = hold_[static_cast<size_t>(tr.from)];
      i64& to = hold_[static_cast<size_t>(tr.to)];
      RIPS_CHECK_MSG(from >= tr.count,
                     "scheduler transfer exceeds node holdings");
      from -= tr.count;
      to += tr.count;
      size_t& cap = regions_[static_cast<size_t>(tr.to)].cap;
      cap = std::max(cap, static_cast<size_t>(to));
    }
  } else {
    size_t tasks = 0;
    for (size_t b = 0; b < k; ++b) tasks += blocks_[b].tasks;
    const i64 work = simd::sum_i64(load_.data(), load_.size());
    const double tasks_per_work =
        work > 0 ? static_cast<double>(tasks) / static_cast<double>(work)
                 : 0.0;
    for (const sched::Transfer& tr : plan.transfers) {
      hold_[static_cast<size_t>(tr.from)] -= tr.count;
      const i64 to = hold_[static_cast<size_t>(tr.to)] += tr.count;
      const double est =
          static_cast<double>(std::max<i64>(to, 0)) * tasks_per_work;
      size_t& cap = regions_[static_cast<size_t>(tr.to)].cap;
      cap = std::max(cap, static_cast<size_t>(est) + 1);
    }
  }
  // The layout, then room for weighted growth above it: twice the layout
  // covers one doubling of every region; a phase that needs more stops
  // its blocks and grows the arena between runs of the stage.
  arena_used_ =
      block_offsets(k, [&](u32 r) { return regions_[r].cap; });
  const size_t room =
      config_.weighted && !zero_growth_room_ ? 2 * arena_used_ : 0;
  arena_limit_ = arena_used_ + room;
  arena_top_.store(arena_used_, std::memory_order_relaxed);
  reserve_arena(arena_limit_, 0);
}

void RipsEngine::reserve_arena(size_t need, size_t keep) {
  if (need <= arena_cap_) return;
  // Left uninitialized: the replay writes every slot before reading it.
  // The kept part may hold slots no region wrote, so it is copied as
  // bytes.
  const size_t cap = std::max(need, 2 * arena_cap_);
  auto grown = std::make_unique_for_overwrite<TaskId[]>(cap);
  if (keep > 0) std::memcpy(grown.get(), arena_.get(), keep * sizeof(TaskId));
  arena_ = std::move(grown);
  arena_cap_ = cap;
}

bool RipsEngine::make_room(Region& region, size_t count, LaneBlock& block) {
  const size_t need = region.local + region.foreign + count;
  if (need <= region.cap) return true;  // always, in count mode
  const size_t cap = std::max(2 * region.cap, need);
  const size_t base = arena_top_.fetch_add(cap, std::memory_order_relaxed);
  if (base + cap > arena_limit_) {
    block.stalled = cap;
    return false;
  }
  ++block.grown;
  TaskId* old = arena_.get() + region.base;
  TaskId* now = arena_.get() + base;
  std::copy(old, old + region.local, now);
  std::copy(old + region.cap - region.foreign, old + region.cap,
            now + cap - region.foreign);
  region.base = base;
  region.cap = cap;
  return true;
}

void RipsEngine::move_tasks(Region& src, Region& dst, NodeId to_phys,
                            size_t count) {
  TaskId* arena = arena_.get();
  const size_t from_foreign = std::min(count, src.foreign);
  const TaskId* foreign_top = arena + src.base + src.cap - src.foreign;
  const TaskId* local_top = arena + src.base + src.local;
  if (job_accounting_) {
    const auto tally = [&](TaskId task) {
      job_migrated_[static_cast<size_t>(
          (*job_of_)[static_cast<size_t>(task)])] += 1;
    };
    std::for_each(foreign_top, foreign_top + from_foreign, tally);
    std::for_each(local_top - (count - from_foreign), local_top, tally);
  }
  // Each task lands on dst's local stack when dst is its origin, on the
  // foreign stack otherwise.
  const NodeId* origin = origin_.data();
  TaskId* up = arena + dst.base + dst.local;
  TaskId* down = arena + dst.base + dst.cap - dst.foreign;
  const auto land = [&](TaskId task) {
    if (origin[task] == to_phys) {
      *up++ = task;
    } else {
      *--down = task;
    }
  };
  for (size_t k = 0; k < from_foreign; ++k) land(foreign_top[k]);
  for (size_t k = from_foreign; k < count; ++k) land(*--local_top);
  src.foreign -= from_foreign;
  src.local -= count - from_foreign;
  dst.local = static_cast<size_t>(up - (arena + dst.base));
  dst.foreign = static_cast<size_t>(arena + dst.base + dst.cap - down);
}

u64 RipsEngine::replay_plan(const sched::ScheduleResult& plan, size_t k,
                            SimTime step_time) {
  const i32 n = static_cast<i32>(live_.size());
  // A split phase replays the plan's lanes; otherwise the plan is one
  // stage of one lane, replayed in plan order by the same body (which
  // keeps a traced run's migrations in plan order).
  static constexpr u32 kOneLane = 1;
  const auto whole = static_cast<u32>(plan.transfers.size());
  Lanes lanes{&kOneLane, 1, &whole, nullptr};
  if (k > 1 && !plan.stage_ends.empty()) {
    lanes = {plan.stage_ends.data(), plan.stage_ends.size(),
             plan.lane_ends.data(), plan.lane_transfers.data()};
  }
  size_regions(plan, k);

  // Partition: RTS entries by origin; the leftover by position — its
  // span's local front and its spawned part go to the local stack, the
  // span's foreign rest to the foreign one (pushed in span order, so the
  // first ends on top of the region's end). Every region fits its rank's
  // holdings; each block lays its ranks' regions out from its offset.
  migration_.resize(static_cast<size_t>(n));
  for_each_block(k, [&](const Block& block) {
    size_t base = block.offset;
    for (u32 r = block.rank_begin; r < block.rank_end; ++r) {
      const NodeId phys = live_[r];
      NodeRt& node = nodes_[static_cast<size_t>(phys)];
      Region& region = regions_[r];
      region.base = base;
      base += region.cap;
      migration_[r] = 0;
      TaskId* up = arena_.get() + region.base;
      TaskId* down = up + region.cap;
      for (const TaskId task : node.rts) {
        if (origin_[static_cast<size_t>(task)] == phys) {
          *up++ = task;
        } else {
          *--down = task;
        }
      }
      node.rts.clear();
      const TaskId* span = rte_.data() + node.rte_begin;
      const TaskId* foreign_end = span + node.rte_len - node.rte_spawned;
      up = std::copy(span, span + node.rte_local, up);
      up = std::copy(node.spawned, node.spawned + node.rte_spawned, up);
      down -= foreign_end - (span + node.rte_local);
      std::reverse_copy(span + node.rte_local, foreign_end, down);
      region.local = static_cast<size_t>(up - (arena_.get() + region.base));
      region.foreign =
          static_cast<size_t>(arena_.get() + region.base + region.cap - down);
    }
  });

  // Replay the transfer plan on the actual task ids. Nodes forward tasks
  // that are already non-local before giving up their own (locality): a
  // transfer pops the source's foreign stack first, then its local one.
  // Per-transfer payloads are kept only while tracing (one block), so the
  // send/recv instants can carry matching correlation ids.
  traced_.clear();
  u64 moved = 0;
  for (size_t s = 0; s < lanes.stages; ++s) {
    const size_t m = for_each_lane_block(
        plan, lanes, s, [&](LaneBlock& block, const sched::Transfer& tr) {
      Region& src = regions_[static_cast<size_t>(tr.from)];
      // Count mode: move exactly tr.count tasks (size_regions checked the
      // holdings). Weighted mode: tr.count is an amount of WORK; take tasks
      // in pop order until the planned amount is matched as closely as
      // task granularity allows (stop early rather than overshoot by more
      // than the final task's better half).
      size_t take = static_cast<size_t>(tr.count);
      if (config_.weighted) {
        take = 0;
        i64 sent_work = 0;
        const TaskId* foreign_top =
            arena_.get() + src.base + src.cap - src.foreign;
        const TaskId* local_top = arena_.get() + src.base + src.local;
        for (; take < src.local + src.foreign; ++take) {
          const TaskId task = take < src.foreign
                                  ? foreign_top[take]
                                  : *(local_top - 1 - (take - src.foreign));
          const auto w = static_cast<i64>(trace_->task(task).work);
          const i64 undershoot = tr.count - sent_work;
          if (undershoot <= 0) break;
          if (take > 0 && sent_work + w - tr.count > undershoot) break;
          sent_work += w;
        }
      }
      Region& dst = regions_[static_cast<size_t>(tr.to)];
      if (!make_room(dst, take, block)) return false;
      const NodeId to_phys = live_[static_cast<size_t>(tr.to)];
      move_tasks(src, dst, to_phys, take);
      const auto sent = static_cast<i64>(take);
      block.moved += take;
      migration_[static_cast<size_t>(tr.from)] += cost_.send_time(sent);
      migration_[static_cast<size_t>(tr.to)] += cost_.recv_time(sent);
      if (obs_.trace != nullptr && sent > 0) {
        traced_.push_back(
            {live_[static_cast<size_t>(tr.from)], to_phys, sent});
      }
      return true;
    });
    for (size_t b = 0; b < m; ++b) {
      moved += lane_blocks_[b].moved;
      grown_regions_ += lane_blocks_[b].grown;
    }
  }
  c_msg_sent_->add(plan.transfers.size());
  c_tasks_migrated_->add(moved);

  // Scheduled tasks enter the RTE (own tasks first, then received ones in
  // arrival order), written once per phase in rank order: each block from
  // the offset its predecessors' task counts give. Every rank is charged
  // the scheduling rounds and its migration time.
  const size_t rte_total = block_offsets(k, [&](u32 r) {
    return regions_[r].local + regions_[r].foreign;
  });
  rte_.resize(rte_total);
  for_each_block(k, [&](const Block& block) {
    size_t at = block.offset;
    for (u32 r = block.rank_begin; r < block.rank_end; ++r) {
      NodeRt& node = nodes_[static_cast<size_t>(live_[r])];
      const Region& region = regions_[r];
      const TaskId* base = arena_.get() + region.base;
      node.rte_begin = static_cast<u32>(at);
      node.rte_len = static_cast<u32>(region.local + region.foreign);
      node.rte_local = static_cast<u32>(region.local);
      node.rte_spawned = 0;
      node.ovh_ns += step_time + migration_[r];
      TaskId* out = rte_.data() + at;
      out = std::copy(base, base + region.local, out);
      std::reverse_copy(base + region.cap - region.foreign, base + region.cap,
                        out);
      at += node.rte_len;
    }
  });
  return moved;
}

void RipsEngine::check_phase_invariants(u64 phase,
                                        const std::vector<i64>& load,
                                        const sched::ScheduleResult& plan,
                                        i64 total) {
  obs::InvariantMonitor* mon = obs_.monitor;
  // Theorem 1: post-scheduling loads pairwise within 1, total conserved.
  mon->check_balance(phase, plan.new_load, total);

  // Map every task to the rank it started the phase on, then find where the
  // replay put it. A task that vanished, appeared from nowhere, or got
  // duplicated is a conservation violation; the relocation count feeds the
  // Theorem-2 comparison against the Lemma-1 lower bound. The mapping is a
  // flat rank-per-task array indexed by id (grown once to trace size, all
  // touched entries restored before returning), so the scan is two linear
  // passes over the CSR snapshot — no hashing, no steady-state allocation.
  constexpr i32 kUnseenRank = -2;  // task absent from the begin snapshot
  constexpr i32 kConsumedRank = -1;
  const i32 n = static_cast<i32>(live_.size());
  if (start_rank_.size() < trace_->size()) {
    start_rank_.resize(trace_->size(), kUnseenRank);
  }
  bool conserved = true;
  for (i32 r = 0; r < n; ++r) {
    const size_t begin = before_offsets_[static_cast<size_t>(r)];
    const size_t end = before_offsets_[static_cast<size_t>(r) + 1];
    for (size_t i = begin; i < end; ++i) {
      i32& slot = start_rank_[static_cast<size_t>(before_tasks_[i])];
      if (slot != kUnseenRank) conserved = false;  // duplicated at begin
      else slot = r;
    }
  }
  i64 relocated = 0;
  i64 seen = 0;
  for (i32 r = 0; r < n; ++r) {
    const NodeRt& node = nodes_[static_cast<size_t>(live_[r])];
    const TaskId* span = rte_.data() + node.rte_begin;
    for (u32 i = 0; i < node.rte_len; ++i) {
      const TaskId task = span[i];
      ++seen;
      i32& slot = start_rank_[static_cast<size_t>(task)];
      if (slot < 0) {
        conserved = false;  // unknown task, or the same task twice
        continue;
      }
      if (slot != r) ++relocated;
      slot = kConsumedRank;
    }
  }
  conserved = conserved && seen == total;
  for (TaskId task : before_tasks_) {
    start_rank_[static_cast<size_t>(task)] = kUnseenRank;
  }
  mon->check_conservation(phase, conserved, kInvalidNode,
                          "system-phase replay must queue every collected "
                          "task exactly once");

  // Theorem 2 against the schedule actually produced (Lemma 1 with the
  // plan's new_load as the target — exact for every scheduler, not only
  // for ones hitting the paper's quota).
  const i64 minimum =
      simd::sum_pos_diff_i64(plan.new_load.data(), load.data(), load.size());
  mon->check_locality(phase, relocated, minimum);
}

SimTime RipsEngine::simulate_user_phase(NodeId node, SimTime start_t,
                                        SimTime stop_t, PhaseMode mode,
                                        Block& block, u64* lost_execs,
                                        SimTime* lost_work_ns) {
  NodeRt& n = nodes_[static_cast<size_t>(node)];
  const bool apply = mode == PhaseMode::kCommit;
  if (n.rte_len == 0) return start_t;  // an empty leftover
  const bool lazy = config_.local == LocalPolicy::kLazy;
  const bool lifo = config_.lifo_execution;

  // The node's queue is its span followed by the tasks it spawns (lazy
  // policy), which go to the block's buffer from `base` on. FIFO takes the
  // span front, then the spawned tasks in order; LIFO takes the spawned
  // stack first, then the span back. A phase starts with no spawned part.
  const TaskId* span = rte_.data() + n.rte_begin;
  u32 head = 0;
  u32 tail = n.rte_len;
  std::vector<TaskId>& spawned = block.spawned;
  const size_t base = spawned.size();
  size_t spawned_head = base;
  u64 executed = 0;
  SimTime busy = 0;
  SimTime spawn_ovh = 0;
  SimTime now = start_t;
  while (now < stop_t) {
    TaskId task;
    if (lifo) {
      if (spawned.size() > base) {
        task = spawned.back();
        spawned.pop_back();
      } else if (head < tail) {
        task = span[--tail];
      } else {
        break;
      }
    } else if (head < tail) {
      task = span[head++];
    } else if (spawned_head < spawned.size()) {
      task = spawned[spawned_head++];
      if (spawned_head == spawned.size()) {
        spawned.resize(base);
        spawned_head = base;
      }
    } else {
      break;
    }
    const apps::TraceTask& info = trace_->task(task);
    const SimTime work = cost_.work_time(info.work);
    now += work;
    if (apply) {
      busy += work;
      exec_node_[static_cast<size_t>(task)] = node;
      ++executed;
      if (job_accounting_) {
        const auto j =
            static_cast<size_t>((*job_of_)[static_cast<size_t>(task)]);
        job_tasks_[j] += 1;
        job_work_ns_[j] += work;
        if (now > job_done_ns_[j]) job_done_ns_[j] = now;
        if (!job_exec_.empty()) job_exec_[j] += 1;
      }
      obs::span(obs_.trace, node, obs::record::kTask, now - work, now,
                static_cast<i64>(task));
    } else if (mode == PhaseMode::kDoomed) {
      // The node finishes this task but dies before the next recovery
      // line: the execution is lost and will be redone by a survivor.
      if (lost_execs != nullptr) *lost_execs += 1;
      if (lost_work_ns != nullptr) *lost_work_ns += work;
    }
    const u32 kids = info.num_children;
    const TaskId* child = trace_->children_begin(task);
    for (u32 c = 0; c < kids; ++c) {
      now += cost_.spawn_ns;
      if (apply) {
        spawn_ovh += cost_.spawn_ns;
        origin_[static_cast<size_t>(child[c])] = node;
      }
      if (lazy) {
        spawned.push_back(child[c]);
      } else if (apply) {
        n.rts.push_back(child[c]);
      }
    }
  }
  if (apply) {
    n.busy_ns += busy;
    n.ovh_ns += spawn_ovh;
    block.executed += executed;
    // The leftover keeps the queue's layout: the span's [unexecuted
    // local][unexecuted foreign] in place, and the unexecuted spawned tasks
    // moved down to `base`, right after the previous node's.
    const u32 local_left = std::clamp(n.rte_local, head, tail) - head;
    spawned.erase(spawned.begin() + static_cast<std::ptrdiff_t>(base),
                  spawned.begin() + static_cast<std::ptrdiff_t>(spawned_head));
    const size_t spawned_left = spawned.size() - base;
    n.rte_begin += head;
    n.rte_len = tail - head + static_cast<u32>(spawned_left);
    n.rte_local = local_left;
    n.rte_spawned = static_cast<u32>(spawned_left);
  } else {
    spawned.resize(base);
  }
  return now;
}

SimTime RipsEngine::user_phase(SimTime t) {
  const i32 n = static_cast<i32>(live_.size());
  const u64 executed_before = executed_total_;
  const SimTime user_start = t;
  // Two collective operation ids per user phase; the detection collective
  // uses the second. Drop decisions hash the id, so the stride is part of
  // every fault run's result.
  const u64 coll_op = coll_op_counter_ + 1;
  coll_op_counter_ += 2;
  i64 phase_retries = 0;  // detection-collective retransmissions, for telemetry
  if (job_accounting_ && obs_.bus != nullptr) {
    job_exec_.assign(static_cast<size_t>(num_jobs_), 0);
  }

  // Both per-node passes run over the same blocks of live ranks.
  const size_t k = plan_blocks(rte_.size());

  // Measuring pass: when would each node drain its RTE, undisturbed? The
  // simulated instruction stream is position-free, so the drain time is
  // the exact sum of precomputed per-task drain costs — O(queue) instead of
  // a full O(subtree) dry-run simulation, which stays as the test
  // reference (set_full_measure_pass, always one block).
  std::vector<SimTime>& drain = drain_;
  drain.assign(nodes_.size(), kNever);
  if (!full_measure_) {
    // Gather-sum kernel over each node's RTE span: the whole measuring
    // pass is one linear read of the drain-cost table per node.
    const SimTime* drain_cost = costs_->drain.data();
    for_each_block(k, [&](const Block& block) {
      for (u32 r = block.rank_begin; r < block.rank_end; ++r) {
        const NodeId phys = live_[r];
        const NodeRt& node = nodes_[static_cast<size_t>(phys)];
        drain[static_cast<size_t>(phys)] =
            t + simd::gather_sum_i64(drain_cost,
                                     rte_.data() + node.rte_begin,
                                     node.rte_len);
      }
    });
  } else {
    for (NodeId phys : live_) {
      drain[static_cast<size_t>(phys)] = simulate_user_phase(
          phys, t, kNever, PhaseMode::kMeasure, blocks_[0]);
    }
  }

  // Effective crash times: a crash timed before this phase (inside the
  // system phase) fires at the phase start; crashes are honored at
  // user-phase granularity. Only a fault plan reads them.
  std::vector<SimTime>& crash_eff = crash_eff_;
  bool crash_candidates = false;
  if (injector_.has_value()) {
    crash_eff.assign(nodes_.size(), kNever);
    for (NodeId phys : live_) {
      if (crash_time_[static_cast<size_t>(phys)] != kNever) {
        crash_eff[static_cast<size_t>(phys)] =
            std::max(t, crash_time_[static_cast<size_t>(phys)]);
        crash_candidates = true;
      }
    }
  }

  // Global condition time over the nodes that stay alive; crash admission
  // below removes the doomed and recomputes until a fixpoint.
  std::vector<char>& doomed = doomed_;
  doomed.assign(nodes_.size(), 0);
  i32 doomed_count = 0;
  SimTime t_cond = t;
  NodeId initiator = live_.front();
  const auto recompute_cond = [&]() {
    if (config_.global == GlobalPolicy::kAny) {
      // Any processor whose RTE drains initiates — including processors
      // that received no work at all (with fewer tasks than processors the
      // idle ones trigger an immediate incremental rebalance; every busy
      // processor still completes its current task, so each phase makes
      // progress).
      t_cond = kNever;
      initiator = live_.front();
      for (NodeId phys : live_) {
        if (doomed[static_cast<size_t>(phys)]) continue;
        if (drain[static_cast<size_t>(phys)] < t_cond) {
          t_cond = drain[static_cast<size_t>(phys)];
          initiator = phys;
        }
      }
      RIPS_CHECK(t_cond != kNever);
    } else {
      t_cond = t;
      for (NodeId phys : live_) {
        if (doomed[static_cast<size_t>(phys)]) continue;
        t_cond = std::max(t_cond, drain[static_cast<size_t>(phys)]);
      }
    }
  };
  recompute_cond();
  if (crash_candidates) {
    // A candidate is admitted (dies inside this phase) when its crash time
    // precedes the condition computed over the remaining survivors. The
    // machine always keeps one survivor: a last-node crash never fires.
    while (n - doomed_count > 1) {
      NodeId pick = kInvalidNode;
      for (NodeId phys : live_) {
        const auto p = static_cast<size_t>(phys);
        if (doomed[p] || crash_eff[p] > t_cond) continue;
        if (pick == kInvalidNode ||
            crash_eff[p] < crash_eff[static_cast<size_t>(pick)]) {
          pick = phys;
        }
      }
      if (pick == kInvalidNode) break;
      doomed[static_cast<size_t>(pick)] = 1;
      ++doomed_count;
      recompute_cond();
    }
  }

  // Detection: signal protocol or naive periodic reduction.
  SimTime t_detect = t_cond;
  SimTime periodic_penalty = 0;
  if (config_.detect == DetectMode::kPeriodic) {
    const SimTime interval = config_.periodic_interval_ns;
    RIPS_CHECK(interval > 0);
    const SimTime elapsed = t_cond - t;
    const SimTime checks = std::max<SimTime>(
        1, (elapsed + interval - 1) / interval);
    t_detect = t + checks * interval;
    // Every reduction interrupts every node briefly: the CPU cost is
    // overhead AND it stretches the phase by the same amount (the
    // computation pauses while the global reduction runs).
    periodic_penalty =
        checks * (cost_.send_overhead_ns + cost_.recv_overhead_ns);
    for (NodeId phys : live_) {
      nodes_[static_cast<size_t>(phys)].ovh_ns += periodic_penalty;
    }
  }

  // Commit pass with per-node stop times; each node's unexecuted spawned
  // tasks stay in its block's buffer. Doomed nodes run until their crash
  // instead: everything they executed this phase dies with them, and so
  // does their queue (recover() re-injects their checkpoint). A fault plan
  // keeps one block, so their incidents stay in rank order.
  SimTime max_death = 0;
  const auto commit_doomed = [&](NodeId phys, Block& block) {
    const SimTime death = crash_eff[static_cast<size_t>(phys)];
    u64 lost = 0;
    SimTime lost_work = 0;
    simulate_user_phase(phys, t, death, PhaseMode::kDoomed, block, &lost,
                        &lost_work);
    NodeRt& node = nodes_[static_cast<size_t>(phys)];
    node.rte_len = node.rte_local = node.rte_spawned = 0;
    dead_pending_.push_back({phys, death, lost, lost_work});
    max_death = std::max(max_death, death);
    obs::TelemetryEvent ev;
    ev.kind = obs::TelemetryEvent::Kind::kCrash;
    ev.t = death;
    ev.node = phys;
    ev.phase = c_phase_system_->value();
    ev.arg = static_cast<i64>(lost);
    ev.detail = "fail-stop crash committed";
    obs_.incident(ev);
  };
  const bool any = config_.global == GlobalPolicy::kAny;
  const SimTime signal_ovh = cost_.send_overhead_ns + cost_.recv_overhead_ns;
  for_each_block(k, [&](Block& block) {
    block.spawned.clear();
    block.executed = 0;
    block.phase_end = t;
    for (u32 r = block.rank_begin; r < block.rank_end; ++r) {
      const NodeId phys = live_[r];
      if (doomed[static_cast<size_t>(phys)]) {
        commit_doomed(phys, block);
        continue;
      }
      // ANY: a node stops once the initiator's init reaches it; ALL: every
      // node drains its RTE.
      SimTime stop = kNever;
      if (any) {
        const SimTime delay =
            signal_ovh + cost_.network_time(machine_distance(initiator, phys));
        stop = t_detect + (phys == initiator ? 0 : delay);
      }
      const SimTime quiesce =
          simulate_user_phase(phys, t, stop, PhaseMode::kCommit, block);
      nodes_[static_cast<size_t>(phys)].ovh_ns += signal_ovh;
      block.phase_end =
          std::max(block.phase_end, any ? std::max(quiesce, stop) : quiesce);
    }
    // The buffer no longer grows: point the nodes' spawned parts into it.
    const TaskId* left = block.spawned.data();
    for (u32 r = block.rank_begin; r < block.rank_end; ++r) {
      NodeRt& node = nodes_[static_cast<size_t>(live_[r])];
      node.spawned = left;
      left += node.rte_spawned;
    }
  });
  // Integer sums and maxima: the merge is exact in any order.
  SimTime phase_end = t;
  u64 committed = 0;
  for (size_t b = 0; b < k; ++b) {
    committed += blocks_[b].executed;
    phase_end = std::max(phase_end, blocks_[b].phase_end);
  }
  executed_total_ += committed;
  c_tasks_executed_->add(committed);
  if (any) {
    phase_end += cost_.step_ns;  // quiescence confirmation
  } else {
    // Ready signals climb the spanning tree, init returns.
    phase_end = std::max(phase_end, t_detect) +
                2 * cost_.network_time(machine_diameter());
  }
  phase_end += periodic_penalty;

  // Faulty detection collective: the ready/init signals carry the
  // heartbeat. Each lost message costs one timeout window plus one resend
  // step on the critical path; dead peers are suspected after the retry
  // budget instead of hanging the protocol.
  const bool message_faults =
      injector_.has_value() && injector_->has_message_faults();
  if ((doomed_count > 0 || message_faults) && n > 1) {
    coll::Collectives& coll = detection_collectives();
    coll.set_telemetry(obs_.bus, phase_end);
    coll::Ledger ledger;
    coll::FaultStats stats;
    const coll::MessageFault fault_fn = [&](NodeId from, NodeId to,
                                            i64 attempt) {
      const NodeId pf = live_view_ != nullptr ? live_view_->physical(from)
                                              : from;
      const NodeId pt = live_view_ != nullptr ? live_view_->physical(to) : to;
      if (doomed[static_cast<size_t>(pf)] || doomed[static_cast<size_t>(pt)]) {
        return true;  // a crashed endpoint never sends or acknowledges
      }
      if (!message_faults) return false;
      return injector_->drop_message(coll_op, pf, pt, attempt);
    };
    i32 base_steps = 0;
    i32 faulty_steps = 0;
    if (config_.global == GlobalPolicy::kAny) {
      const NodeId init_rank = live_view_ != nullptr
                                   ? live_view_->rank_of(initiator)
                                   : initiator;
      base_steps = coll.or_barrier_steps(init_rank);
      faulty_steps = coll.or_barrier_steps_faulty(
          init_rank, fault_fn, kFaultMaxRetries, ledger, stats);
    } else {
      base_steps = coll.ready_signal_steps();
      faulty_steps = coll.ready_signal_steps_faulty(
          fault_fn, kFaultMaxRetries, ledger, stats);
    }
    const SimTime extra =
        static_cast<SimTime>(faulty_steps - base_steps) * cost_.info_step_ns +
        static_cast<SimTime>(stats.timeouts) * kFaultTimeoutNs;
    c_dropped_msgs_->add(static_cast<u64>(stats.dropped));
    c_msg_retries_->add(static_cast<u64>(stats.retries));
    phase_retries = stats.retries;
    if (doomed_count > 0) c_recovery_time_ns_->add(static_cast<u64>(extra));
    if (extra > 0 && obs_.trace != nullptr) {
      // The detection collective's retransmission burst: one span covering
      // the critical-path stretch, one instant per retried tree edge
      // (physical node ids — the retry log speaks in live ranks).
      obs_.trace->span(kInvalidNode, obs::record::kCollectiveRetry, phase_end,
                       phase_end + extra, stats.timeouts);
      for (const coll::RetryEvent& re : stats.retry_log) {
        const NodeId pf = live_view_ != nullptr ? live_view_->physical(re.from)
                                                : re.from;
        obs_.trace->instant(pf,
                            re.delivered ? obs::record::kCollRetry
                                         : obs::record::kCollSuspect,
                            phase_end, re.attempts);
      }
    }
    phase_end += extra;
  }
  if (doomed_count > 0) {
    // Survivors cannot close the phase before the heartbeat timeout of the
    // last death has expired.
    phase_end = std::max(phase_end, max_death + kFaultTimeoutNs);
  }

  const u64 executed = executed_total_ - executed_before;
  obs::PhaseSample sample;
  sample.kind = obs::PhaseKind::kUser;
  sample.phase = c_phase_user_->value();
  sample.t0 = user_start;
  sample.t1 = phase_end;
  sample.tasks = executed;
  sample.retries = phase_retries;
  sample.live_nodes = n - doomed_count;
  // Drain estimate: how long the measuring pass predicted this phase's
  // computation would run before the global condition fired.
  sample.drain_ns = t_cond - user_start;
  sample.executed_total = executed_total_;
  c_phase_user_->add();
  h_uphase_tasks_->observe(static_cast<i64>(executed));
  obs_.phase(sample, job_exec_);
  return phase_end;
}

void RipsEngine::init_run_state(const apps::TaskTrace& trace,
                                const TaskCosts* shared) {
  trace_ = &trace;
  const i32 n = scheduler_.topology().size();
  nodes_.assign(static_cast<size_t>(n), NodeRt{});
  rte_.clear();
  grown_regions_ = 0;
  origin_.assign(trace.size(), kInvalidNode);
  exec_node_.assign(trace.size(), kInvalidNode);
  executed_total_ = 0;
  released_segments_ = 0;
  online_ = false;
  retired_ = 0;
  folded_ = 0;
  nonlocal_folded_ = 0;
  phases_.clear();
  if (phases_.capacity() < 1024) phases_.reserve(1024);
  metrics_ = sim::RunMetrics{};
  metrics_.num_nodes = n;
  registry_.reset();
  g_live_nodes_->set(n);
  start_rank_.clear();

  // Fault state is rebuilt from the plan every run: re-running with the
  // same plan is bit-identical.
  alive_.assign(static_cast<size_t>(n), 1);
  live_.resize(static_cast<size_t>(n));
  for (i32 j = 0; j < n; ++j) live_[static_cast<size_t>(j)] = j;
  crash_time_.assign(static_cast<size_t>(n), kNever);
  dead_at_.assign(static_cast<size_t>(n), kNever);
  ckpt_offsets_.assign(static_cast<size_t>(n) + 1, 0);
  ckpt_tasks_.clear();
  before_offsets_.clear();
  before_tasks_.clear();
  dead_pending_.clear();
  live_view_.reset();
  degraded_sched_.reset();
  live_coll_.reset();
  coll_op_counter_ = 0;
  mig_corr_ = 0;
  injector_.reset();
  if (fault_plan_ != nullptr && !fault_plan_->empty()) {
    injector_.emplace(*fault_plan_, n);
    for (const sim::CrashFault& c : injector_->crashes()) {
      auto& slot = crash_time_[static_cast<size_t>(c.node)];
      slot = std::min(slot, c.time_ns);
    }
  }

  // Drain-sum fast path: the per-task measure cost is a fixed function of
  // the task (lazy drains the whole spawned subtree; eager only charges the
  // spawn overhead — children land in RTS, not the queue). Fault plans
  // keep it too: crashes are admitted against the measured drains
  // afterwards and message drops only stretch the detection collectives,
  // so neither changes the undisturbed drain times. A lent table must have
  // been built for exactly this trace, cost model and local policy.
  if (shared != nullptr) {
    RIPS_CHECK_MSG(shared->built_for(trace, cost_, config_.local),
                   "shared task costs were built for another trace, cost "
                   "model or local policy");
    costs_ = shared;
    costs_built_ = 0;
  } else {
    own_costs_.reset(trace, cost_, config_.local);
    own_costs_.extend();
    costs_ = &own_costs_;
    costs_built_ = trace.size();
  }
  metrics_.sequential_ns = costs_->sequential_ns;
  metrics_.used_fast_measure = !full_measure_;
  split_ok_ = job_of_ == nullptr && obs_.trace == nullptr &&
              !injector_.has_value() && !full_measure_;
  max_blocks_ = 1;
  max_lane_blocks_ = 1;
  job_exec_.clear();
  job_accounting_ = job_of_ != nullptr && num_jobs_ > 0;
  if (job_accounting_) {
    RIPS_CHECK_MSG(job_of_->size() == trace.size(),
                   "job map must have one entry per trace task");
    const auto nj = static_cast<size_t>(num_jobs_);
    job_tasks_.assign(nj, 0);
    job_work_ns_.assign(nj, 0);
    job_done_ns_.assign(nj, 0);
    job_migrated_.assign(nj, 0);
    job_nonlocal_.assign(nj, 0);
  } else {
    // Stale accumulators from a previous run must not leak into an online
    // run whose first tenant arrives only after the loop started (the
    // grow path resizes these, preserving existing entries).
    job_tasks_.clear();
    job_work_ns_.clear();
    job_done_ns_.clear();
    job_migrated_.clear();
    job_nonlocal_.clear();
  }
  obs_.run_begin({"rips", n, trace.size()});
}

bool RipsEngine::machine_empty() const {
  for (NodeId phys : live_) {
    const auto& node = nodes_[static_cast<size_t>(phys)];
    if (node.rte_len != 0 || !node.rts.empty()) return false;
  }
  return true;
}

sim::RunMetrics RipsEngine::run(const apps::TaskTrace& trace,
                                const TaskCosts* shared) {
  init_run_state(trace, shared);
  release_segment_roots(0);
  SimTime t = 0;

  while (true) {
    t = system_phase(t);
    if (executed_total_ == trace.size()) {
      RIPS_CHECK(machine_empty());
      break;  // the final (empty) system phase detected termination
    }
    t = user_phase(t);
  }
  return finalize_run(t);
}

sim::RunMetrics RipsEngine::run_online(exec::TaskSource& source) {
  RIPS_CHECK_MSG(fault_plan_ == nullptr || fault_plan_->empty(),
                 "online mode does not support fault injection");
  // The source owns the job map in online mode: a set_job_map() binding
  // would go stale the moment the trace grows.
  job_of_ = source.job_of();
  num_jobs_ = job_of_ == nullptr ? 0 : source.num_jobs();
  init_run_state(source.trace(), nullptr);
  RIPS_CHECK_MSG(trace_->num_segments() == 1,
                 "online task sources must keep a single segment");
  // The segment barrier has no meaning when jobs arrive continuously; mark
  // the single segment released without placing roots — the source reports
  // every root (including any in its initial trace) through poll().
  released_segments_ = 1;
  online_ = true;
  online_synced_ = trace_->size();
  online_rr_ = 0;

  SimTime t = 0;
  bool drained = online_poll(source, &t, /*idle=*/true);
  while (true) {
    t = system_phase(t);
    if (machine_empty()) {
      RIPS_CHECK_MSG(executed_total_ == retired_ + trace_->size(),
                     "machine idle with unexecuted tasks — the source "
                     "appended tasks without reporting their roots");
      if (drained) break;  // the final (empty) phase detected termination
      // The one retirement point: no queue holds a task and every task of
      // the trace has executed, so none of them is ever read again.
      retire_online(source);
      if (online_poll(source, &t, /*idle=*/true)) drained = true;
      continue;  // the next system phase schedules what just arrived
    }
    t = user_phase(t);
    if (online_poll(source, &t, /*idle=*/false)) drained = true;
  }
  return finalize_run(t);
}

bool RipsEngine::online_poll(exec::TaskSource& source, SimTime* t, bool idle) {
  exec::TaskSource::EngineView view;
  view.now = *t;
  view.machine_idle = idle;
  view.executed_total = executed_total_;
  view.job_executed = job_accounting_ ? job_tasks_.data() : nullptr;
  view.num_jobs = num_jobs_;
  online_roots_.clear();
  SimTime advance = 0;
  const exec::TaskSource::Poll st = source.poll(view, &online_roots_, &advance);
  RIPS_CHECK_MSG(advance >= 0, "task sources cannot advance time backwards");
  *t += advance;
  grow_online_state(source);
  // Inject the new roots round-robin across the live nodes: the spawn is
  // charged to the receiving node's overhead, and the very next system
  // phase rebalances them like any other RTS task — which is also what
  // keeps the conservation monitor clean (the roots are on a queue before
  // the phase snapshot is taken).
  for (TaskId r : online_roots_) {
    RIPS_CHECK_MSG(static_cast<size_t>(r) < trace_->size() &&
                       origin_[static_cast<size_t>(r)] == kInvalidNode,
                   "online root out of range or injected twice");
    const NodeId home = live_[static_cast<size_t>(online_rr_ % live_.size())];
    online_rr_ += 1;
    origin_[static_cast<size_t>(r)] = home;
    nodes_[static_cast<size_t>(home)].rts.push_back(r);
    nodes_[static_cast<size_t>(home)].ovh_ns += cost_.spawn_ns;
  }
  return st == exec::TaskSource::Poll::kDrained;
}

void RipsEngine::grow_online_state(const exec::TaskSource& source) {
  const size_t m = trace_->size();
  if (m == online_synced_ && source.num_jobs() == num_jobs_) return;
  RIPS_CHECK_MSG(m >= online_synced_,
                 "online traces only grow between retirements");
  RIPS_CHECK_MSG(trace_->num_segments() == 1,
                 "online task sources must keep a single segment");
  origin_.resize(m, kInvalidNode);
  exec_node_.resize(m, kInvalidNode);
  metrics_.sequential_ns += own_costs_.extend();
  costs_built_ += m - online_synced_;
  online_synced_ = m;

  // Late-arriving tenants: the job map and the per-job accumulators grow
  // with the trace (resize preserves the earlier jobs' counts). Turning
  // accounting on at the first job is safe — nothing has executed before
  // the first poll delivers work.
  const i32 nj = source.num_jobs();
  if (job_of_ != nullptr && nj > num_jobs_) {
    num_jobs_ = nj;
    job_accounting_ = true;
    const auto s = static_cast<size_t>(nj);
    job_tasks_.resize(s, 0);
    job_work_ns_.resize(s, 0);
    job_done_ns_.resize(s, 0);
    job_migrated_.resize(s, 0);
    job_nonlocal_.resize(s, 0);
  }
  if (job_accounting_) {
    RIPS_CHECK_MSG(job_of_->size() == m,
                   "job map must have one entry per trace task");
  }
}

void RipsEngine::fold_nonlocal() {
  const size_t m = trace_->size();
  nonlocal_folded_ += static_cast<u64>(simd::count_ne_i32(
      exec_node_.data() + folded_, origin_.data() + folded_, m - folded_));
  if (job_accounting_) {
    for (size_t i = folded_; i < m; ++i) {
      if (exec_node_[i] != origin_[i]) {
        job_nonlocal_[static_cast<size_t>((*job_of_)[i])] += 1;
      }
    }
  }
  folded_ = m;
}

void RipsEngine::retire_online(exec::TaskSource& source) {
  // Count before dropping: the per-job tally reads the source's job map,
  // which retire() empties.
  fold_nonlocal();
  const size_t m = trace_->size();
  if (!source.retire()) return;
  RIPS_CHECK_MSG(trace_->size() == 0 &&
                     (job_of_ == nullptr || job_of_->empty()),
                 "a retiring source must empty its trace and job map");
  retired_ += m;
  folded_ = 0;
  online_synced_ = 0;
  // clear() keeps the capacity: the next run of work up to the largest one
  // so far grows these arrays without allocating.
  origin_.clear();
  exec_node_.clear();
  own_costs_.reset(*trace_, cost_, config_.local);
  start_rank_.clear();
}

sim::RunMetrics RipsEngine::finalize_run(SimTime t) {
  const i32 n = static_cast<i32>(nodes_.size());
  metrics_.makespan_ns = t;
  for (i32 j = 0; j < n; ++j) {
    const auto& node = nodes_[static_cast<size_t>(j)];
    metrics_.total_busy_ns += node.busy_ns;
    metrics_.total_overhead_ns += node.ovh_ns;
    if (alive_[static_cast<size_t>(j)]) {
      metrics_.total_idle_ns += t - node.busy_ns - node.ovh_ns;
    } else {
      // A dead node stops accumulating idle time at its death.
      const SimTime horizon = std::min(dead_at_[static_cast<size_t>(j)], t);
      const SimTime used = node.busy_ns + node.ovh_ns;
      metrics_.total_idle_ns += horizon > used ? horizon - used : 0;
    }
  }
  fold_nonlocal();
  c_tasks_nonlocal_->add(nonlocal_folded_);
  RIPS_CHECK_MSG(executed_total_ == retired_ + trace_->size(),
                 "RIPS finished with unexecuted tasks");
  if (job_accounting_) {
    metrics_.jobs.resize(static_cast<size_t>(num_jobs_));
    for (i32 j = 0; j < num_jobs_; ++j) {
      sim::JobMetrics& jm = metrics_.jobs[static_cast<size_t>(j)];
      jm.nonlocal_tasks = job_nonlocal_[static_cast<size_t>(j)];
      jm.tasks = job_tasks_[static_cast<size_t>(j)];
      jm.work_ns = job_work_ns_[static_cast<size_t>(j)];
      jm.completion_ns = job_done_ns_[static_cast<size_t>(j)];
      jm.tasks_migrated = job_migrated_[static_cast<size_t>(j)];
    }
    metrics_.store_job_counters(registry_);
  }
  // The registry is the source of truth for every counter column; the
  // Table-I view is derived from it once, here.
  metrics_.load_counters(registry_);
  obs_.run_end(metrics_.makespan_ns);
  return metrics_;
}

}  // namespace rips::core
