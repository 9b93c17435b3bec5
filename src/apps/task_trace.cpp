#include "apps/task_trace.hpp"

#include <algorithm>

namespace rips::apps {

void TaskTrace::begin_segment() {
  root_offsets_.push_back(roots_flat_.size());
  segment_work_.push_back(0);
}

TaskId TaskTrace::add_root(u64 work) {
  const auto id = static_cast<TaskId>(tasks_.size());
  TraceTask t;
  t.work = work;
  t.first_child = static_cast<u32>(children_.size());
  t.segment = static_cast<u16>(root_offsets_.size() - 2);
  tasks_.push_back(t);
  roots_flat_.push_back(id);
  root_offsets_.back() = roots_flat_.size();
  segment_work_.back() += work;
  total_work_ += work;
  max_task_work_ = std::max(max_task_work_, work);
  return id;
}

TaskId TaskTrace::add_child(TaskId parent, u64 work) {
  RIPS_CHECK(static_cast<size_t>(parent) < tasks_.size());
  TraceTask& p = tasks_[static_cast<size_t>(parent)];
  // Children of one parent must be added consecutively (breadth-first
  // construction); the span representation depends on it.
  if (p.num_children == 0) {
    p.first_child = static_cast<u32>(children_.size());
  } else {
    RIPS_CHECK_MSG(p.first_child + p.num_children == children_.size(),
                   "children of a parent must be added consecutively");
  }
  const auto id = static_cast<TaskId>(tasks_.size());
  children_.push_back(id);
  p.num_children += 1;

  TraceTask t;
  t.work = work;
  t.first_child = static_cast<u32>(children_.size());
  t.segment = p.segment;
  tasks_.push_back(t);
  segment_work_[t.segment] += work;
  total_work_ += work;
  max_task_work_ = std::max(max_task_work_, work);
  return id;
}

void TaskTrace::clear() {
  tasks_.clear();
  children_.clear();
  roots_flat_.clear();
  root_offsets_.assign(2, 0);
  segment_work_.assign(1, 0);
  total_work_ = 0;
  max_task_work_ = 0;
}

u64 TaskTrace::critical_path(u32 segment) const {
  RIPS_CHECK(segment < num_segments());
  // Children always have larger ids than their parents, so one backward
  // sweep computes the longest downward chain from every task.
  std::vector<u64> cp(tasks_.size(), 0);
  u64 best = 0;
  for (size_t i = tasks_.size(); i-- > 0;) {
    const TraceTask& t = tasks_[i];
    if (t.segment != segment) continue;
    u64 down = 0;
    for (u32 c = 0; c < t.num_children; ++c) {
      down = std::max(down, cp[children_[t.first_child + c]]);
    }
    cp[i] = t.work + down;
    best = std::max(best, cp[i]);
  }
  return best;
}

double TaskTrace::optimal_efficiency(i32 n) const {
  RIPS_CHECK(n > 0);
  if (total_work_ == 0) return 1.0;
  u64 parallel_time = 0;
  for (u32 s = 0; s < num_segments(); ++s) {
    u64 max_task = 0;
    for (size_t i = 0; i < tasks_.size(); ++i) {
      if (tasks_[i].segment == s) max_task = std::max(max_task, tasks_[i].work);
    }
    const u64 even = (segment_work_[s] + static_cast<u64>(n) - 1) /
                     static_cast<u64>(n);
    parallel_time += std::max({even, critical_path(s), max_task});
  }
  return static_cast<double>(total_work_) /
         (static_cast<double>(n) * static_cast<double>(parallel_time));
}

std::string TaskTrace::summary() const {
  std::string s = std::to_string(tasks_.size()) + " tasks, " +
                  std::to_string(num_segments()) + " segment(s), total work " +
                  std::to_string(total_work_) + ", max task " +
                  std::to_string(max_task_work_);
  return s;
}

}  // namespace rips::apps
