#include "exec/sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "util/cpus.hpp"
#include "util/host_pool.hpp"

namespace rips::sweep {

i32 resolve_jobs(i32 jobs) {
  return jobs > 0 ? jobs : static_cast<i32>(usable_cpus());
}

void parallel_for(size_t count, i32 jobs,
                  const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  const size_t workers = std::min<size_t>(
      static_cast<size_t>(resolve_jobs(jobs)), count);

  // Per-index capture keeps failure handling deterministic: all indices
  // run regardless of sibling failures, then the lowest failing index's
  // exception is rethrown.
  std::vector<std::exception_ptr> errors(count);

  if (workers == 1) {
    for (size_t i = 0; i < count; ++i) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  } else {
    std::atomic<size_t> next{0};
    auto worker = [&] {
      // A run inside a parallel sweep keeps its thread: its engine's
      // blocked passes run inline instead of on the host pool.
      host_pool::mark_worker_thread();
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  for (size_t i = 0; i < count; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

}  // namespace rips::sweep
