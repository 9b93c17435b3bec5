// Multi-job workloads — the paper's Section 1 mentions that "RIPS can be
// used for a single job on a dedicated machine or a multiprogramming
// environment" but only develops the single-job case. This extension
// merges several single-segment job traces into one trace so the engines
// schedule them together, with a per-task owner map for their per-job
// accounting (set_job_map, RunMetrics::jobs; see examples/multi_job.cpp).
#pragma once

#include <string>
#include <vector>

#include "apps/task_trace.hpp"

namespace rips::apps {

struct JobSpan {
  std::string name;
  u32 num_tasks = 0;  ///< tasks contributed (their ids: MergedJobs::owner)
};

struct MergedJobs {
  TaskTrace trace;
  std::vector<JobSpan> jobs;
  std::vector<u32> owner;  ///< per merged-trace task: index into `jobs`
};

/// Merges single-segment traces into one. Roots interleave round-robin so
/// no job monopolizes the head of the initial schedule; spawn structure
/// and work are preserved exactly. All inputs must have one segment.
MergedJobs merge_jobs(const std::vector<std::pair<std::string,
                                                  const TaskTrace*>>& jobs);

}  // namespace rips::apps
