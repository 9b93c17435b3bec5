// Minimal deterministic fork-join: parallel_for runs `fn(0..count)` across
// a pool of OS threads, with results committed by index so callers observe
// the same outcome for any job count (docs/PERFORMANCE.md).
//
// Contract:
//   - every index runs exactly once, even when some indices throw;
//   - an exception in one index never prevents sibling indices from
//     running — after all indices finish, the exception of the LOWEST
//     failing index is rethrown (deterministic: independent of which
//     thread hit it first or how indices interleaved);
//   - jobs <= 0 selects every CPU the process may use (its affinity
//     mask, util/cpus.hpp: `taskset -c 0` gives one thread);
//   - an effective job count of 1 runs inline on the calling thread
//     (no pool, no synchronization — bit-identical to a plain loop);
//   - the threads of a wider sweep mark themselves as outer workers
//     (util/host_pool.hpp), so a run inside one executes its blocked
//     passes inline and `--jobs=N` never oversubscribes the host.
#pragma once

#include <functional>

#include "util/types.hpp"

namespace rips::sweep {

/// Resolves a --jobs value: <= 0 means "every CPU the process may use"
/// (usable_cpus(), at least 1); positive values pass through.
i32 resolve_jobs(i32 jobs);

/// Runs fn(i) for i in [0, count) on up to `jobs` threads. Work is handed
/// out through an atomic index dispenser, so callers must make fn's effect
/// depend only on `i` (write to slot i of a pre-sized vector) — never on
/// execution order.
void parallel_for(size_t count, i32 jobs, const std::function<void(size_t)>& fn);

}  // namespace rips::sweep
