#include "balance/engine.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/simd.hpp"

namespace rips::balance {

DynamicEngine::DynamicEngine(const topo::Topology& topo,
                             const sim::CostModel& cost, Strategy& strategy)
    : topo_(topo),
      cost_(cost),
      strategy_(strategy),
      node_lanes_(static_cast<size_t>(topo.size())),
      c_tasks_executed_(&registry_.counter("tasks.executed")),
      c_tasks_nonlocal_(&registry_.counter("tasks.nonlocal")),
      c_tasks_migrated_(&registry_.counter("tasks.migrated")),
      c_msg_sent_(&registry_.counter("msg.sent")),
      h_msg_latency_ns_(&registry_.histogram("msg.latency_ns",
                                             obs::pow2_bounds(1LL << 30))),
      h_queue_depth_(
          &registry_.histogram("queue.depth", obs::pow2_bounds(1 << 20))) {}

i64 DynamicEngine::load_of(NodeId node) const {
  const NodeRt& n = nodes_[static_cast<size_t>(node)];
  return static_cast<i64>(n.queue.size()) + (n.executing ? 1 : 0);
}

std::vector<DynamicEngine::NodeTotals> DynamicEngine::node_totals() const {
  std::vector<NodeTotals> out;
  out.reserve(nodes_.size());
  for (const NodeRt& n : nodes_) out.push_back({n.busy_ns, n.ovh_ns});
  return out;
}

i64 DynamicEngine::queued_of(NodeId node) const {
  return static_cast<i64>(nodes_[static_cast<size_t>(node)].queue.size());
}

SimTime DynamicEngine::node_now(NodeId node) const {
  return nodes_[static_cast<size_t>(node)].free_at;
}

size_t DynamicEngine::lane(NodeId node, i32 hops) {
  std::vector<std::pair<i32, u32>>& mine =
      node_lanes_[static_cast<size_t>(node)];
  for (const auto& [h, id] : mine) {
    if (h == hops) return id;
  }
  mine.emplace_back(hops, static_cast<u32>(events_.add_lane()));
  return mine.back().second;
}

void DynamicEngine::charge_overhead(NodeId node, SimTime ns) {
  NodeRt& n = nodes_[static_cast<size_t>(node)];
  n.free_at = std::max(n.free_at, now_) + ns;
  n.ovh_ns += ns;
}

void DynamicEngine::enqueue_local(NodeId node, TaskId task) {
  nodes_[static_cast<size_t>(node)].queue.push_back(task);
  maybe_start(node);
  strategy_.on_load_change(*this, node);
}

void DynamicEngine::send_message(NodeId from, NodeId to, i32 kind, i64 a,
                                 i64 b, i64 max_tasks) {
  RIPS_CHECK(from != to);
  NodeRt& sender = nodes_[static_cast<size_t>(from)];
  Pending msg;
  msg.kind = kind;
  msg.a = a;
  msg.b = b;
  msg.node = to;
  msg.from = from;
  const i64 take = std::clamp<i64>(max_tasks, 0,
                                   static_cast<i64>(sender.queue.size()));
  if (take > 0) {
    msg.tasks = acquire_task_buf();
    std::vector<TaskId>& tasks = task_bufs_[msg.tasks];
    for (i64 i = 0; i < take; ++i) {
      // Migrate the OLDEST queued tasks: with depth-first local execution
      // (see maybe_start) the oldest entries are the shallowest, largest
      // subtrees — moving one of them moves a whole pocket of future work,
      // which is what lets load spread faster than the task-by-task
      // diffusion decay (the classic work-stealing discipline).
      tasks.push_back(sender.queue.pop_front());
    }
  }
  post(msg, take);
  RIPS_CHECK_MSG(c_msg_sent_->value() < 200'000'000ULL,
                 "runaway strategy: message budget exceeded");
  if (take > 0) strategy_.on_load_change(*this, from);
}

void DynamicEngine::send_spawned_task(NodeId from, NodeId to, TaskId task) {
  RIPS_CHECK(from != to);
  Pending msg;
  msg.kind = kMigrate;
  msg.node = to;
  msg.from = from;
  msg.tasks = acquire_task_buf();
  task_bufs_[msg.tasks].push_back(task);
  post(msg, 1);
}

void DynamicEngine::post(Pending msg, i64 tasks) {
  msg.corr = msg_corr_++;
  charge_overhead(msg.from, cost_.send_time(tasks));
  c_msg_sent_->add();
  c_tasks_migrated_->add(static_cast<u64>(tasks));
  const i32 hops = topo_.distance(msg.from, msg.node);
  const SimTime latency = cost_.network_time(hops);
  h_msg_latency_ns_->observe(latency);
  const SimTime sent = nodes_[static_cast<size_t>(msg.from)].free_at;
  obs::instant(obs_.trace, msg.from, obs::record::kSend, sent, tasks,
               msg.corr);
  events_.push(lane(msg.from, hops), sent + latency, msg);
}

void DynamicEngine::maybe_start(NodeId node) {
  NodeRt& n = nodes_[static_cast<size_t>(node)];
  if (n.executing || n.queue.empty()) return;
  // Depth-first local execution: run the newest task first so spawned
  // subtrees are consumed as they unfold and the queue stays shallow.
  const TaskId task = n.queue.pop_back();
  n.executing = true;
  const SimTime work = cost_.work_time(trace_->task(task).work);
  n.task_start_ns = std::max(n.free_at, now_);
  n.free_at = n.task_start_ns + work;
  n.busy_ns += work;
  Pending finish;
  finish.a = task;
  finish.node = node;
  events_.push(lane(node, 0), n.free_at, finish);
}

void DynamicEngine::finish_task(NodeId node, TaskId task) {
  NodeRt& n = nodes_[static_cast<size_t>(node)];
  n.executing = false;
  obs::span(obs_.trace, node, obs::record::kTask, n.task_start_ns, n.free_at,
            static_cast<i64>(task));
  exec_node_[static_cast<size_t>(task)] = node;
  c_tasks_executed_->add();
  completed_in_segment_ += 1;
  if (job_accounting_) {
    const auto j = static_cast<size_t>((*job_of_)[static_cast<size_t>(task)]);
    job_tasks_[j] += 1;
    job_work_ns_[j] += n.free_at - n.task_start_ns;
    if (n.free_at > job_done_ns_[j]) job_done_ns_[j] = n.free_at;
  }

  // Spawn children at this node; the strategy places each one.
  const u32 kids = trace_->num_children(task);
  const TaskId* child = trace_->children_begin(task);
  for (u32 c = 0; c < kids; ++c) {
    charge_overhead(node, cost_.spawn_ns);
    origin_[static_cast<size_t>(child[c])] = node;
    strategy_.on_spawn(*this, node, child[c]);
  }
  strategy_.on_load_change(*this, node);

  const bool segment_done =
      completed_in_segment_ == segment_sizes_[current_segment_];
  if (segment_done && current_segment_ + 1 < trace_->num_segments()) {
    release_segment(current_segment_ + 1, n.free_at);
  }

  maybe_start(node);
  if (!nodes_[static_cast<size_t>(node)].executing &&
      nodes_[static_cast<size_t>(node)].queue.empty() && !segment_done) {
    strategy_.on_idle(*this, node);
  }
}

void DynamicEngine::deliver(const Pending& msg) {
  const NodeId node = msg.node;
  Message view;
  view.kind = msg.kind;
  view.from = msg.from;
  view.a = msg.a;
  view.b = msg.b;
  view.corr = msg.corr;
  if (msg.tasks != kNoTasks) {
    std::vector<TaskId>& tasks = task_bufs_[msg.tasks];
    view.num_tasks = static_cast<i64>(tasks.size());
    nodes_[static_cast<size_t>(node)].queue.append(tasks.data(), tasks.size());
    tasks.clear();
    free_task_bufs_.push_back(msg.tasks);
  }
  obs::instant(obs_.trace, node, obs::record::kRecv, now_, view.num_tasks,
               view.corr);
  charge_overhead(node, cost_.recv_time(view.num_tasks));
  h_queue_depth_->observe(load_of(node));
  if (view.num_tasks > 0) {
    maybe_start(node);
    strategy_.on_load_change(*this, node);
  }
  if (view.kind >= 0) strategy_.on_message(*this, node, view);
  maybe_start(node);
}

void DynamicEngine::release_segment(u32 segment, SimTime at) {
  const u64 completed_prev = completed_in_segment_;
  current_segment_ = segment;
  completed_in_segment_ = 0;

  // Global barrier: combine + broadcast over the topology. Every node pays
  // the protocol overhead and cannot proceed before the release time.
  const SimTime barrier_ns =
      2 * static_cast<SimTime>(topo_.diameter()) * cost_.per_hop_ns +
      cost_.send_overhead_ns + cost_.recv_overhead_ns;
  SimTime latest = at;
  for (const NodeRt& n : nodes_) latest = std::max(latest, n.free_at);
  const SimTime release_t = latest + barrier_ns;
  obs::PhaseSample sample;
  sample.kind = obs::PhaseKind::kSegment;
  sample.phase = segment;
  sample.t0 = latest;
  sample.t1 = release_t;
  sample.tasks = completed_prev;
  if (obs_.bus != nullptr) {  // only subscribers read the load spread
    i64 min_load = load_of(0);
    i64 max_load = min_load;
    for (NodeId v = 1; v < static_cast<NodeId>(nodes_.size()); ++v) {
      min_load = std::min(min_load, load_of(v));
      max_load = std::max(max_load, load_of(v));
    }
    sample.imbalance = max_load - min_load;
  }
  sample.live_nodes = static_cast<i32>(nodes_.size());
  sample.executed_total = c_tasks_executed_->value();
  obs_.phase(sample);
  for (auto& n : nodes_) {
    n.ovh_ns += cost_.send_overhead_ns + cost_.recv_overhead_ns;
    n.free_at = std::max(n.free_at, release_t);
  }

  // Segment roots materialize on the node that executed the corresponding
  // root of the previous segment (data affinity).
  const auto& prev_roots = trace_->roots(segment - 1);
  const auto& roots = trace_->roots(segment);
  const SimTime saved_now = now_;
  now_ = release_t;
  for (size_t i = 0; i < roots.size(); ++i) {
    NodeId home = 0;
    if (!prev_roots.empty()) {
      const TaskId prev = prev_roots[i % prev_roots.size()];
      home = exec_node_[static_cast<size_t>(prev)];
      if (home == kInvalidNode) home = 0;
    }
    charge_overhead(home, cost_.spawn_ns);
    origin_[static_cast<size_t>(roots[i])] = home;
    strategy_.on_spawn(*this, home, roots[i]);
  }
  for (NodeId v = 0; v < static_cast<NodeId>(nodes_.size()); ++v) {
    if (load_of(v) == 0) strategy_.on_idle(*this, v);
  }
  now_ = saved_now;
}

sim::RunMetrics DynamicEngine::run(const apps::TaskTrace& trace) {
  RIPS_CHECK_MSG(!running_, "DynamicEngine::run is not reentrant");
  running_ = true;
  trace_ = &trace;
  const i32 n = topo_.size();
  nodes_.assign(static_cast<size_t>(n), NodeRt{});
  origin_.assign(trace.size(), kInvalidNode);
  exec_node_.assign(trace.size(), kInvalidNode);
  metrics_ = sim::RunMetrics{};
  metrics_.num_nodes = n;
  registry_.reset();
  events_.clear();
  now_ = 0;
  current_segment_ = 0;
  completed_in_segment_ = 0;
  msg_corr_ = 0;
  job_accounting_ = job_of_ != nullptr && num_jobs_ > 0;
  if (job_accounting_) {
    RIPS_CHECK_MSG(job_of_->size() == trace.size(),
                   "job map must have one entry per trace task");
    job_tasks_.assign(static_cast<size_t>(num_jobs_), 0);
    job_work_ns_.assign(static_cast<size_t>(num_jobs_), 0);
    job_done_ns_.assign(static_cast<size_t>(num_jobs_), 0);
  }

  segment_sizes_.assign(trace.num_segments(), 0);
  for (size_t i = 0; i < trace.size(); ++i) {
    segment_sizes_[trace.task(static_cast<TaskId>(i)).segment] += 1;
    metrics_.sequential_ns +=
        cost_.work_time(trace.task(static_cast<TaskId>(i)).work);
  }

  obs_.run_begin({"dynamic", n, trace.size()});

  strategy_.reset(*this);

  // Segment 0 roots materialize on node 0 (sequential root expansion).
  for (TaskId root : trace.roots(0)) {
    charge_overhead(0, cost_.spawn_ns);
    origin_[static_cast<size_t>(root)] = 0;
    strategy_.on_spawn(*this, 0, root);
  }
  // Everyone else starts idle; give receiver-initiated strategies their
  // first chance to act.
  for (NodeId v = 0; v < n; ++v) {
    if (load_of(v) == 0) strategy_.on_idle(*this, v);
  }

  while (!events_.empty()) {
    const auto event = events_.pop();
    now_ = event.time;
    const Pending& p = event.payload;
    if (p.kind == kFinish) {
      finish_task(p.node, static_cast<TaskId>(p.a));
    } else {
      deliver(p);
    }
  }

  RIPS_CHECK_MSG(c_tasks_executed_->value() == trace.size(),
                 "engine finished with unexecuted tasks");

  c_tasks_nonlocal_->add(static_cast<u64>(
      simd::count_ne_i32(exec_node_.data(), origin_.data(), trace.size())));
  if (job_accounting_) {
    metrics_.jobs.resize(static_cast<size_t>(num_jobs_));
    for (size_t i = 0; i < trace.size(); ++i) {
      if (exec_node_[i] != origin_[i]) {
        metrics_.jobs[static_cast<size_t>((*job_of_)[i])].nonlocal_tasks += 1;
      }
    }
    for (size_t j = 0; j < metrics_.jobs.size(); ++j) {
      sim::JobMetrics& jm = metrics_.jobs[j];
      jm.tasks = job_tasks_[j];
      jm.work_ns = job_work_ns_[j];
      jm.completion_ns = job_done_ns_[j];
    }
    metrics_.store_job_counters(registry_);
  }
  SimTime makespan = 0;
  for (const NodeRt& node : nodes_) makespan = std::max(makespan, node.free_at);
  metrics_.makespan_ns = makespan;
  for (const NodeRt& node : nodes_) {
    metrics_.total_busy_ns += node.busy_ns;
    metrics_.total_overhead_ns += node.ovh_ns;
    metrics_.total_idle_ns += makespan - node.busy_ns - node.ovh_ns;
  }
  metrics_.load_counters(registry_);
  // The final segment never hits a barrier: its tally closes the run, so
  // subscribers see every task and trace analysis sees the trailing
  // overhead (message handling after the last task span).
  obs::PhaseSample last;
  last.kind = obs::PhaseKind::kSegment;
  last.phase = current_segment_ + 1;
  last.t0 = makespan;
  last.t1 = makespan;
  last.tasks = completed_in_segment_;
  last.live_nodes = n;
  last.executed_total = c_tasks_executed_->value();
  obs_.run_end(makespan, &last);
  running_ = false;
  return metrics_;
}

}  // namespace rips::balance
