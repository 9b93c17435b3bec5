// Online job sources — the growing-trace counterpart of multi_job.hpp.
//
// OnlineJobs maintains ONE single-segment merged trace that new jobs are
// appended to while an engine is already running over it (the
// RipsEngine::run_online contract: appends happen only inside
// TaskSource::poll, ids are stable until the next retirement, children
// follow their parents). It is the multi-tenant substrate of the job
// server (src/serve) and of the deterministic sources below.
//
// ScriptedSource replays a precomputed submission schedule in simulated
// time: job k arrives at a fixed sim-instant, independent of wall clock,
// so a scripted run is bit-reproducible — the determinism backbone of
// bench/serve_soak and the serve test suite.
#pragma once

#include <string>
#include <vector>

#include "apps/task_trace.hpp"
#include "exec/task_source.hpp"
#include "util/types.hpp"

namespace rips::apps {

/// A merged trace plus the per-task job map and per-job totals. Appends
/// preserve all existing task ids; retire() drops every task at once. The
/// job map vector has a stable address so engines can hold a pointer to it
/// across appends and retirements.
class OnlineJobs {
 public:
  /// Appends every task of `job` (which must be single-segment) to the
  /// merged trace, preserving its spawn structure and work exactly.
  /// Returns the new job's index; *roots_out (optional) receives the
  /// merged ids of the job's root tasks — exactly what
  /// TaskSource::poll must report to the engine.
  i32 append_job(const std::string& name, const TaskTrace& job,
                 std::vector<TaskId>* roots_out);

  /// Empties the trace and the job map, keeping their storage. Job
  /// indices, names and per-job totals carry on: the next job appended is
  /// still job num_jobs(), but its first task is id 0.
  void retire() {
    trace_.clear();
    job_of_.clear();
  }

  const TaskTrace& trace() const { return trace_; }
  const std::vector<i32>& job_of() const { return job_of_; }
  i32 num_jobs() const { return static_cast<i32>(names_.size()); }
  const std::string& name(i32 job) const {
    return names_[static_cast<size_t>(job)];
  }
  /// Total tasks job `job` contributed to the merged trace.
  u64 job_tasks(i32 job) const {
    return tasks_per_job_[static_cast<size_t>(job)];
  }

 private:
  TaskTrace trace_;
  std::vector<i32> job_of_;
  std::vector<std::string> names_;
  std::vector<u64> tasks_per_job_;
};

/// One entry of a ScriptedSource schedule.
struct ScriptedJob {
  std::string name;
  SimTime arrival_ns = 0;  ///< simulated submission instant
  TaskTrace trace;         ///< single-segment job body
};

/// Deterministic TaskSource over a fixed submission schedule (sorted by
/// arrival time). Jobs whose arrival instant has passed are injected at
/// each poll; when the machine is idle and nothing is due, the source
/// advances the simulated clock to the next arrival instead of blocking.
/// It retires its tasks whenever the engine asks.
class ScriptedSource : public exec::TaskSource {
 public:
  explicit ScriptedSource(std::vector<ScriptedJob> schedule);

  const TaskTrace& trace() const override { return jobs_.trace(); }
  Poll poll(const EngineView& view, std::vector<TaskId>* new_roots,
            SimTime* advance_ns) override;
  bool retire() override {
    jobs_.retire();
    return true;
  }
  const std::vector<i32>* job_of() const override { return &jobs_.job_of(); }
  i32 num_jobs() const override { return jobs_.num_jobs(); }

  /// Submission instant of (already injected) job `job` — jobs are
  /// injected in schedule order, so job indices follow the schedule.
  SimTime arrival_ns(i32 job) const {
    return schedule_[static_cast<size_t>(job)].arrival_ns;
  }
  const OnlineJobs& jobs() const { return jobs_; }

 private:
  std::vector<ScriptedJob> schedule_;
  size_t next_ = 0;  ///< first schedule entry not yet injected
  OnlineJobs jobs_;
};

}  // namespace rips::apps
