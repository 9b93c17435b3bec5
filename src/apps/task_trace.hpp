// TaskTrace — the common currency between applications and the runtime.
//
// Every application is executed once, for real (N-Queens search, IDA*
// 15-puzzle search, molecular-dynamics pair counting), to produce a
// deterministic trace: a forest of tasks with
//   * work      — actual operation count (search nodes / pair interactions),
//   * children  — tasks spawned when this task completes (dynamic spawning),
//   * segment   — synchronization segment; tasks of segment s+1 only become
//                 available after every task of segment s has completed
//                 (IDA* iterations, MD steps). Spawned children always
//                 belong to their parent's segment.
//
// The trace is then replayed under each scheduling strategy inside the
// simulator. This is exact because none of the paper's applications make
// placement-dependent decisions: the task structure is a property of the
// input, not of the schedule.
#pragma once

#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace rips::apps {

/// Lightweight view of one segment's root tasks (a span into the trace's
/// flat CSR root array). Source-compatible with the `const
/// std::vector<TaskId>&` it replaced: iteration, size/empty, indexing and
/// equality all work; the view is only invalidated by mutating the trace.
class RootSpan {
 public:
  RootSpan(const TaskId* data, size_t size) : data_(data), size_(size) {}
  const TaskId* begin() const { return data_; }
  const TaskId* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  TaskId operator[](size_t i) const { return data_[i]; }
  friend bool operator==(const RootSpan& a, const RootSpan& b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }

 private:
  const TaskId* data_;
  size_t size_;
};

struct TraceTask {
  u64 work = 0;          ///< work units (application operations)
  u32 first_child = 0;   ///< offset into TaskTrace child array
  u32 num_children = 0;  ///< tasks spawned at completion
  u16 segment = 0;       ///< synchronization segment index
};

class TaskTrace {
 public:
  /// Starts a new synchronization segment; subsequent root tasks belong to
  /// it. Segment 0 exists implicitly.
  void begin_segment();

  /// Adds a root task (available at the start of its segment).
  TaskId add_root(u64 work);

  /// Adds a child task of `parent` (same segment, available at the parent's
  /// completion). Parent tasks must be fully built before their children
  /// get children of their own (construction is breadth-first friendly).
  TaskId add_child(TaskId parent, u64 work);

  /// Removes every task, leaving an empty single-segment trace; keeps the
  /// storage, so refilling it up to its old size allocates nothing.
  void clear();

  // --- accessors ---------------------------------------------------------
  size_t size() const { return tasks_.size(); }
  const TraceTask& task(TaskId id) const {
    return tasks_[static_cast<size_t>(id)];
  }
  /// Children of `id` as a (pointer, count) view into the child array.
  const TaskId* children_begin(TaskId id) const {
    return children_.data() + task(id).first_child;
  }
  u32 num_children(TaskId id) const { return task(id).num_children; }

  u32 num_segments() const {
    return static_cast<u32>(root_offsets_.size() - 1);
  }
  RootSpan roots(u32 segment) const {
    const size_t begin = root_offsets_[segment];
    return {roots_flat_.data() + begin, root_offsets_[segment + 1] - begin};
  }

  u64 total_work() const { return total_work_; }
  u64 max_task_work() const { return max_task_work_; }
  u64 segment_work(u32 segment) const { return segment_work_[segment]; }

  /// Longest root-to-leaf work chain within a segment (a lower bound on
  /// the segment's makespan on any number of processors).
  u64 critical_path(u32 segment) const;

  /// Best possible efficiency on `n` processors assuming optimal
  /// scheduling and zero overhead (Table II): Ts / (n * sum over segments
  /// of max(ceil(W_seg / n), critical path, max task)).
  double optimal_efficiency(i32 n) const;

  /// Human-readable one-line summary for bench output.
  std::string summary() const;

 private:
  friend class TraceValidator;
  std::vector<TraceTask> tasks_;
  std::vector<TaskId> children_;
  // Per-segment roots as flat CSR: roots_flat_[root_offsets_[s] ..
  // root_offsets_[s+1]) are segment s's roots. Roots are only ever added
  // to the newest segment, so append stays O(1). Segment 0 exists
  // implicitly.
  std::vector<TaskId> roots_flat_;
  std::vector<size_t> root_offsets_{0, 0};
  std::vector<u64> segment_work_{0};
  u64 total_work_ = 0;
  u64 max_task_work_ = 0;
};

}  // namespace rips::apps
