// The host pool: one persistent fork-join pool per process for
// data-parallel passes inside a single simulation run (docs/PERFORMANCE.md,
// "Threads inside a run"). The sweep executor spreads whole runs over
// threads; this pool spreads the blocks of one pass.
//
// Contract:
//   - run(count, body, ctx) calls body(ctx, i) exactly once for every i in
//     [0, count) and returns when all calls have finished. Indices are
//     handed out through an atomic cursor, so the caller must make each
//     call's effect depend only on `i`, never on which thread ran it or in
//     which order. An index that throws does not stop the others; run()
//     rethrows the first exception once all have finished (inline, the
//     exception leaves at once, as from a plain loop).
//   - The workers start lazily, on the first run() with count > 1 from a
//     thread that may use them: one per CPU of the process's affinity mask,
//     less one, because the calling thread works too. A process that never
//     asks starts no thread.
//   - run() executes every index inline on the calling thread when that
//     thread is a pool worker or a marked outer worker (mark_worker_thread:
//     the sweep executor's threads), when another run() holds the pool, or
//     when the affinity mask has one CPU. Nested parallelism therefore never
//     oversubscribes the host.
//   - Dispatch is a function pointer plus a context: no std::function, no
//     allocation once the workers exist. Idle workers park on a condition
//     variable; the process's exit joins them.
#pragma once

#include <cstddef>

namespace rips::host_pool {

using Body = void (*)(void* ctx, std::size_t index);

/// Runs body(ctx, i) for i in [0, count) on the pool (see the contract).
void run(std::size_t count, Body body, void* ctx);

/// Convenience form for a callable object: fn(i) for i in [0, count).
template <typename Fn>
void run(std::size_t count, Fn& fn) {
  run(
      count, [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); },
      &fn);
}

/// Marks the calling thread as a worker of an outer parallel loop, for the
/// rest of its life: every run() it makes executes inline.
void mark_worker_thread();

/// Worker threads started so far (0 until a run() first needs them).
std::size_t threads_started();

/// run() calls that went to the workers (the others ran inline).
std::size_t dispatches();

}  // namespace rips::host_pool
