#include "apps/multi_job.hpp"

#include "util/check.hpp"

namespace rips::apps {

MergedJobs merge_jobs(
    const std::vector<std::pair<std::string, const TaskTrace*>>& jobs) {
  RIPS_CHECK(!jobs.empty());
  MergedJobs out;
  out.jobs.reserve(jobs.size());

  // Per input job: map from source task id to merged task id, filled as we
  // copy the spawn forest breadth-first.
  struct Pending {
    u32 job;
    TaskId source;   // id in the source trace
    TaskId merged;   // id in the merged trace
  };

  size_t total = 0;
  for (const auto& [name, trace] : jobs) {
    RIPS_CHECK_MSG(trace->num_segments() == 1,
                   "merge_jobs handles single-segment jobs");
    total += trace->size();
  }
  out.owner.reserve(total);

  // Round-robin the root tasks so the merged segment starts fair.
  std::vector<Pending> queue;
  std::vector<size_t> cursor(jobs.size(), 0);
  bool any = true;
  while (any) {
    any = false;
    for (u32 j = 0; j < jobs.size(); ++j) {
      const auto& roots = jobs[j].second->roots(0);
      if (cursor[j] >= roots.size()) continue;
      any = true;
      const TaskId source = roots[cursor[j]++];
      const TaskId merged =
          out.trace.add_root(jobs[j].second->task(source).work);
      out.owner.push_back(j);
      queue.push_back({j, source, merged});
    }
  }
  for (u32 j = 0; j < jobs.size(); ++j) {
    out.jobs.push_back({jobs[j].first, 0});
  }

  // Copy children breadth-first; each parent's children stay consecutive.
  for (size_t head = 0; head < queue.size(); ++head) {
    const Pending p = queue[head];
    const TaskTrace& src = *jobs[p.job].second;
    const TaskId* child = src.children_begin(p.source);
    for (u32 c = 0; c < src.num_children(p.source); ++c) {
      const TaskId merged =
          out.trace.add_child(p.merged, src.task(child[c]).work);
      out.owner.push_back(p.job);
      queue.push_back({p.job, child[c], merged});
    }
  }

  RIPS_CHECK(out.trace.size() == total);
  RIPS_CHECK(out.owner.size() == total);
  for (size_t i = 0; i < out.owner.size(); ++i) {
    out.jobs[out.owner[i]].num_tasks += 1;
  }
  return out;
}

}  // namespace rips::apps
