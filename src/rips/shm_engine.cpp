#include "rips/shm_engine.hpp"

#include <algorithm>
#include <deque>
#include <queue>

#include "util/check.hpp"

namespace rips::core {

sim::RunMetrics SharedMemoryEngine::run(const apps::TaskTrace& trace) {
  const i32 procs = config_.num_procs;
  RIPS_CHECK(procs > 0);

  sim::RunMetrics metrics;
  metrics.num_nodes = procs;
  registry_.reset();
  if (obs_.trace != nullptr) obs_.trace->clear();
  for (size_t i = 0; i < trace.size(); ++i) {
    metrics.sequential_ns +=
        cost_.work_time(trace.task(static_cast<TaskId>(i)).work);
  }

  std::deque<TaskId> queue;
  SimTime lock_free_at = 0;
  lock_busy_ns_ = 0;
  std::vector<SimTime> busy(static_cast<size_t>(procs), 0);
  std::vector<SimTime> ovh(static_cast<size_t>(procs), 0);
  std::vector<SimTime> free_at(static_cast<size_t>(procs), 0);

  // One lock-protected queue operation by `worker` starting at `t`;
  // returns the completion time. Lock wait shows up as idle (it is time
  // the CPU spins), the hold itself as overhead.
  const auto lock_op = [&](i32 worker, SimTime t) {
    const SimTime acquired = std::max(t, lock_free_at);
    lock_free_at = acquired + config_.lock_op_ns;
    lock_busy_ns_ += config_.lock_op_ns;
    ovh[static_cast<size_t>(worker)] += config_.lock_op_ns;
    c_lock_ops_->add();
    h_lock_wait_ns_->observe(acquired - t);
    return lock_free_at;
  };

  u64 completed = 0;
  u64 completed_in_segment = 0;
  u32 segment = 0;
  std::vector<u64> segment_sizes(trace.num_segments(), 0);
  for (size_t i = 0; i < trace.size(); ++i) {
    segment_sizes[trace.task(static_cast<TaskId>(i)).segment] += 1;
  }

  const auto release_segment = [&](u32 seg, SimTime at) {
    // The releasing worker enqueues every root under the lock.
    SimTime t = at;
    for (const TaskId root : trace.roots(seg)) {
      t = lock_op(0, t) + config_.enqueue_ns;
      ovh[0] += config_.enqueue_ns;
      queue.push_back(root);
    }
    free_at[0] = std::max(free_at[0], t);
  };
  if (trace.size() == 0) return metrics;
  release_segment(0, 0);

  // Earliest-available worker first; ties by worker id (deterministic).
  using Item = std::pair<SimTime, i32>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> ready;
  for (i32 w = 0; w < procs; ++w) ready.emplace(free_at[static_cast<size_t>(w)], w);
  std::vector<i32> parked;

  while (completed < trace.size()) {
    RIPS_CHECK_MSG(!ready.empty(), "all workers parked with work remaining");
    auto [t, worker] = ready.top();
    ready.pop();
    t = std::max(t, free_at[static_cast<size_t>(worker)]);

    // Try to take a task.
    const SimTime after_lock = lock_op(worker, t);
    if (queue.empty()) {
      // Nothing there: park until someone enqueues.
      free_at[static_cast<size_t>(worker)] = after_lock;
      parked.push_back(worker);
      continue;
    }
    const TaskId task = queue.front();
    queue.pop_front();
    SimTime now = after_lock + config_.dequeue_ns;
    ovh[static_cast<size_t>(worker)] += config_.dequeue_ns;

    const SimTime work = cost_.work_time(trace.task(task).work);
    busy[static_cast<size_t>(worker)] += work;
    now += work;
    obs::span(obs_.trace, worker, obs::record::kTask, now - work, now,
              static_cast<i64>(task));
    c_tasks_executed_->add();
    metrics.num_tasks += 1;
    completed += 1;
    completed_in_segment += 1;

    // Spawn children into the shared queue.
    const u32 kids = trace.num_children(task);
    const TaskId* child = trace.children_begin(task);
    for (u32 c = 0; c < kids; ++c) {
      now = lock_op(worker, now) + config_.enqueue_ns;
      ovh[static_cast<size_t>(worker)] += config_.enqueue_ns;
      queue.push_back(child[c]);
    }
    if (kids > 0) {
      for (const i32 p : parked) ready.emplace(now, p);
      parked.clear();
    }

    // Segment barrier.
    if (completed_in_segment == segment_sizes[segment] &&
        segment + 1 < trace.num_segments()) {
      ++segment;
      completed_in_segment = 0;
      release_segment(segment, now);
      for (const i32 p : parked) ready.emplace(now, p);
      parked.clear();
    }

    free_at[static_cast<size_t>(worker)] = now;
    ready.emplace(now, worker);
  }

  SimTime makespan = 0;
  for (const SimTime t : free_at) makespan = std::max(makespan, t);
  metrics.makespan_ns = makespan;
  for (i32 w = 0; w < procs; ++w) {
    metrics.total_busy_ns += busy[static_cast<size_t>(w)];
    metrics.total_overhead_ns += ovh[static_cast<size_t>(w)];
    metrics.total_idle_ns +=
        makespan - busy[static_cast<size_t>(w)] - ovh[static_cast<size_t>(w)];
  }
  return metrics;
}

}  // namespace rips::core
