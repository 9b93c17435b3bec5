#include "rips/task_costs.hpp"

#include "util/simd.hpp"

namespace rips::core {

void TaskCosts::reset(const apps::TaskTrace& t, const sim::CostModel& cost,
                      LocalPolicy policy) {
  drain.clear();
  sequential_ns = 0;
  trace = &t;
  ns_per_work = cost.ns_per_work;
  spawn_ns = cost.spawn_ns;
  local = policy;
}

SimTime TaskCosts::extend() {
  const size_t from = drain.size();
  const size_t m = trace->size();
  sim::CostModel cost;  // work_time under the table's ns_per_work
  cost.ns_per_work = ns_per_work;
  const bool lazy = local == LocalPolicy::kLazy;
  drain.resize(m);
  SimTime work_sum = 0;
  // Backward, so that a task's children (larger ids) are done first.
  for (size_t i = m; i-- > from;) {
    const auto task = static_cast<TaskId>(i);
    const apps::TraceTask& info = trace->task(task);
    const SimTime work = cost.work_time(info.work);
    work_sum += work;
    SimTime c = work + static_cast<SimTime>(info.num_children) * spawn_ns;
    if (lazy) {
      c += simd::gather_sum_i64(drain.data(), trace->children_begin(task),
                                info.num_children);
    }
    drain[i] = c;
  }
  sequential_ns += work_sum;
  return work_sum;
}

bool TaskCosts::built_for(const apps::TaskTrace& t, const sim::CostModel& cost,
                          LocalPolicy policy) const {
  return trace == &t && drain.size() == t.size() &&
         ns_per_work == cost.ns_per_work && spawn_ns == cost.spawn_ns &&
         local == policy;
}

}  // namespace rips::core
