// TaskQueue — a deque of TaskIds backed by one contiguous vector, for
// DynamicEngine's per-node ready queues. std::deque allocates a new block
// every few hundred entries and copies block-by-block; these queues are
// push_back/pop_front/pop_back only, so a vector plus a head cursor gives
// the same semantics with flat storage and reserve().
//
// pop_front advances the cursor instead of erasing; the dead prefix is
// compacted once it outgrows the live part, keeping pop_front amortized
// O(1) and memory proportional to the live size.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace rips::sim {

class TaskQueue {
 public:
  bool empty() const { return head_ == buf_.size(); }
  size_t size() const { return buf_.size() - head_; }

  TaskId front() const { return buf_[head_]; }
  TaskId back() const { return buf_.back(); }

  void push_back(TaskId task) { buf_.push_back(task); }

  /// Appends `n` tasks in order (one memcpy-able range insert — the bulk
  /// RTE refill after a system phase).
  void append(const TaskId* tasks, size_t n) {
    buf_.insert(buf_.end(), tasks, tasks + n);
  }

  TaskId pop_front() {
    const TaskId task = buf_[head_++];
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (head_ >= 64 && head_ * 2 >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<i64>(head_));
      head_ = 0;
    }
    return task;
  }

  TaskId pop_back() {
    const TaskId task = buf_.back();
    buf_.pop_back();
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    }
    return task;
  }

  void clear() {
    buf_.clear();
    head_ = 0;
  }

  void reserve(size_t n) { buf_.reserve(n); }

 private:
  std::vector<TaskId> buf_;
  size_t head_ = 0;
};

}  // namespace rips::sim
