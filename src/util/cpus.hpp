// The CPUs this process may run on: the sweep executor's `--jobs=0` and
// the host pool's worker count both size themselves from it.
#pragma once

#include <cstddef>

namespace rips {

/// CPUs in the calling thread's affinity mask (sched_getaffinity), so
/// `taskset -c 0` yields 1; std::thread::hardware_concurrency() when the
/// mask cannot be read. At least 1.
std::size_t usable_cpus();

}  // namespace rips
