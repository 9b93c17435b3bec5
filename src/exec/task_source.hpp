// TaskSource — the engine-facing API for *online* task injection
// (docs/SERVING.md). The classic entry point, RipsEngine::run(trace),
// replays a finite trace that is fully known up front; run_online(source)
// instead asks a TaskSource for work at every phase boundary, so jobs
// submitted while the engine is already running spawn tasks dynamically
// mid-run — the regime the job server (src/serve) operates in.
//
// Contract:
//  * trace() returns the source's TaskTrace. Tasks already in it are
//    immutable; the source may append new tasks ONLY inside poll() (which
//    the engine calls from its own loop between phases), so the engine can
//    read the trace without synchronization during a phase. The trace must
//    keep a single synchronization segment — a global segment barrier has
//    no meaning when jobs arrive continuously.
//  * The trace shrinks only through retire(), which the engine calls at
//    an idle point: right before an idle poll, when every task of the
//    trace has executed and no queue holds one. A source that answers true
//    has emptied its trace and job map, so the next appended task is id 0
//    again; job indices never restart. The default keeps every task.
//  * poll() is invoked by the engine (a) once before the first system
//    phase, (b) after every user phase (machine_idle = false), and
//    (c) whenever a system phase leaves the whole machine without work
//    (machine_idle = true). With machine_idle set the source MAY block in
//    wall-clock time waiting for submissions; it then reports the idle
//    wait through *advance_ns, which the engine adds to the simulated
//    clock before injecting the newly arrived roots.
//  * Roots appended to *new_roots must be ids of tasks added during this
//    poll() call. The engine places them round-robin across live nodes
//    and schedules them in the next system phase; their spawned subtrees
//    then unfold exactly like replayed tasks.
//  * kDrained is terminal: no further tasks will ever arrive. The engine
//    finishes everything injected so far, runs one final (empty) system
//    phase and returns.
//
// Header-only on purpose: the interface lives in src/exec so both the
// engine (src/rips) and the implementations (src/apps, src/serve) can see
// it without a link-time dependency.
#pragma once

#include <vector>

#include "apps/task_trace.hpp"
#include "util/types.hpp"

namespace rips::exec {

class TaskSource {
 public:
  enum class Poll {
    kNewWork,  ///< new roots were appended; schedule them this phase
    kIdle,     ///< nothing right now, but more may arrive later
    kDrained,  ///< no more work will ever arrive (terminal)
  };

  /// What the engine exposes to the source at each poll: the simulated
  /// clock, whether the machine has run out of queued work, and per-job
  /// cumulative execution counts (the source's window into completion —
  /// job j is finished exactly when job_executed[j] reaches the job's
  /// task count).
  struct EngineView {
    SimTime now = 0;
    bool machine_idle = false;
    u64 executed_total = 0;
    const u64* job_executed = nullptr;  ///< per job; null without accounting
    i32 num_jobs = 0;
  };

  virtual ~TaskSource() = default;

  /// The growing trace (see the contract above).
  virtual const apps::TaskTrace& trace() const = 0;

  /// Hand the engine any newly arrived work (see the contract above).
  virtual Poll poll(const EngineView& view, std::vector<TaskId>* new_roots,
                    SimTime* advance_ns) = 0;

  /// Drop every task of the trace (see the contract above). Returns true
  /// when the trace and the job map are now empty; false keeps them.
  virtual bool retire() { return false; }

  /// Per-task job ownership map for multi-tenant accounting, one entry per
  /// trace task, growing and retired with the trace; null disables job
  /// accounting. The pointed-to vector must have a stable address across
  /// polls.
  virtual const std::vector<i32>* job_of() const { return nullptr; }
  virtual i32 num_jobs() const { return 0; }
};

}  // namespace rips::exec
