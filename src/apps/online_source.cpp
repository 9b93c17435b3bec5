#include "apps/online_source.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rips::apps {

i32 OnlineJobs::append_job(const std::string& name, const TaskTrace& job,
                           std::vector<TaskId>* roots_out) {
  RIPS_CHECK_MSG(job.num_segments() == 1,
                 "online jobs must be single-segment");
  RIPS_CHECK_MSG(job.size() > 0, "online jobs must contain at least one task");
  const i32 index = num_jobs();
  names_.push_back(name);
  tasks_per_job_.push_back(job.size());

  // Same breadth-first copy as merge_jobs: roots first, then each parent's
  // children consecutively — the order TaskTrace::add_child requires.
  struct Pending {
    TaskId source;  // id in the job's own trace
    TaskId merged;  // id in the merged trace
  };
  std::vector<Pending> queue;
  queue.reserve(job.size());
  for (TaskId r : job.roots(0)) {
    const TaskId merged = trace_.add_root(job.task(r).work);
    job_of_.push_back(index);
    queue.push_back({r, merged});
    if (roots_out != nullptr) roots_out->push_back(merged);
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const Pending p = queue[head];
    const TaskId* child = job.children_begin(p.source);
    for (u32 c = 0; c < job.num_children(p.source); ++c) {
      const TaskId merged = trace_.add_child(p.merged, job.task(child[c]).work);
      job_of_.push_back(index);
      queue.push_back({child[c], merged});
    }
  }
  RIPS_CHECK(queue.size() == job.size());
  RIPS_CHECK(job_of_.size() == trace_.size());
  return index;
}

ScriptedSource::ScriptedSource(std::vector<ScriptedJob> schedule)
    : schedule_(std::move(schedule)) {
  RIPS_CHECK_MSG(
      std::is_sorted(schedule_.begin(), schedule_.end(),
                     [](const ScriptedJob& a, const ScriptedJob& b) {
                       return a.arrival_ns < b.arrival_ns;
                     }),
      "scripted schedules must be sorted by arrival time");
}

exec::TaskSource::Poll ScriptedSource::poll(const EngineView& view,
                                            std::vector<TaskId>* new_roots,
                                            SimTime* advance_ns) {
  *advance_ns = 0;
  if (next_ == schedule_.size()) return Poll::kDrained;

  SimTime now = view.now;
  if (view.machine_idle && schedule_[next_].arrival_ns > now) {
    // Nothing due and nothing running: skip the simulated clock forward to
    // the next arrival (the online analogue of an idle wall-clock wait).
    *advance_ns = schedule_[next_].arrival_ns - now;
    now = schedule_[next_].arrival_ns;
  }
  bool injected = false;
  while (next_ < schedule_.size() && schedule_[next_].arrival_ns <= now) {
    const ScriptedJob& j = schedule_[next_];
    jobs_.append_job(j.name, j.trace, new_roots);
    next_ += 1;
    injected = true;
  }
  if (injected) return Poll::kNewWork;
  return next_ == schedule_.size() ? Poll::kDrained : Poll::kIdle;
}

}  // namespace rips::apps
