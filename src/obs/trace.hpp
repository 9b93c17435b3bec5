// Structured tracing for the simulated machine — the paper's evaluation is
// an observability exercise (overhead time Th, idle time Ti, per-phase load
// quality), and squinting at ASCII charts does not scale to it. A
// TraceSession records *spans* (named intervals with a duration) and
// *instants* on one track per simulated node plus one machine-wide track,
// and exports Chrome/Perfetto `trace_event` JSON, so any simulated run
// opens directly in ui.perfetto.dev with per-node swimlanes.
//
// Storage is a fixed-capacity ring buffer per track: recording is O(1),
// allocation-free after construction, and a runaway run overwrites its
// oldest events instead of exhausting memory (`dropped()` reports how many
// were lost). Event names and categories are expected to be string
// literals — the session stores the pointers, not copies.
//
// Zero overhead when disabled: engines hold a `TraceSession*` that is null
// by default, and every instrumentation site is a null-check away from
// straight-line code (see obs::Obs in obs.hpp). A disabled run is
// bit-identical to an instrumented one because tracing only ever *records*
// simulation state, never produces it.
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace rips::obs {

struct TraceEvent {
  enum class Type : u8 { kSpan, kInstant };

  const char* name = "";      ///< static string (not copied)
  const char* category = "";  ///< static string: "phase", "task", "coll", ...
  Type type = Type::kSpan;
  NodeId node = kInvalidNode;  ///< kInvalidNode = the machine-wide track
  SimTime start_ns = 0;
  SimTime dur_ns = 0;          ///< 0 for instants
  const char* arg_name = nullptr;  ///< optional numeric payload
  i64 arg = 0;
  const char* arg2_name = nullptr;  ///< optional second payload (e.g. "corr")
  i64 arg2 = 0;
};

/// The trace form of each record kind: category, name and the names of its
/// payloads — the only way events are written. Defined once here and shared
/// by the writers (Obs::phase / Obs::incident and the engines' task,
/// scheduling, message and collective detail), analysis::phase_profile /
/// critical_path and utilization_chart; docs/OBSERVABILITY.md's trace
/// catalog lists them.
namespace record {
struct Form {
  const char* category;
  const char* name;
  const char* arg = nullptr;   ///< payload, if any
  const char* arg2 = nullptr;  ///< second payload, if any
};
inline constexpr Form kSystemPhase{"phase", "system_phase", "scheduled"};
inline constexpr Form kUserPhase{"phase", "user_phase", "executed"};
inline constexpr Form kSegmentBarrier{"phase", "segment_barrier", "segment"};
inline constexpr Form kRunEnd{"phase", "run_end", "makespan"};
inline constexpr Form kSchedule{"phase", "schedule", "comm_steps"};
inline constexpr Form kMigrate{"phase", "migrate", "moved"};
inline constexpr Form kCrash{"fault", "crash", "lost_execs"};
inline constexpr Form kRecovery{"fault", "recovery", "reinjected"};
inline constexpr Form kTask{"task", "task", "id"};
/// A message's two ends share the engine-assigned correlation id.
inline constexpr Form kSend{"msg", "send", "tasks", "corr"};
inline constexpr Form kRecv{"msg", "recv", "tasks", "corr"};
inline constexpr Form kCollectiveRetry{"coll", "collective_retry", "timeouts"};
inline constexpr Form kCollRetry{"coll", "coll_retry", "attempts"};
inline constexpr Form kCollSuspect{"coll", "coll_suspect", "attempts"};
}  // namespace record

class TraceSession {
 public:
  /// One ring per node plus one machine-wide ring, each holding up to
  /// `capacity_per_track` events (oldest overwritten first).
  explicit TraceSession(i32 num_nodes, size_t capacity_per_track = 1 << 14);

  i32 num_nodes() const { return num_nodes_; }

  /// Drops all recorded events (capacity is kept).
  void clear();

  /// Records a completed interval on `node`'s track (kInvalidNode = the
  /// machine-wide track) in `form`, whose strings must outlive the session
  /// (pass string literals). A payload the form does not name is dropped.
  /// The second payload carries message-correlation ids ("corr") so trace
  /// analysis can reconstruct send→recv edges (src/obs/analysis).
  void span(NodeId node, const record::Form& form, SimTime t0, SimTime t1,
            i64 arg = 0, i64 arg2 = 0);

  /// Records a point event.
  void instant(NodeId node, const record::Form& form, SimTime t, i64 arg = 0,
               i64 arg2 = 0);

  /// Events currently retained (across all tracks).
  size_t size() const;

  /// Events overwritten because a ring was full.
  u64 dropped() const { return dropped_; }

  /// All retained events, sorted by start time; ties are broken longest-
  /// duration-first so enclosing spans precede their children (what the
  /// trace_event format expects for same-track nesting), then by track.
  std::vector<TraceEvent> sorted_events() const;

  /// Chrome/Perfetto `trace_event` JSON ("X"/"i" events, ts/dur in
  /// microseconds, tid = node, one metadata record per track name).
  std::string to_json() const;

  /// Writes to_json() to `path`; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  struct Ring {
    std::vector<TraceEvent> buf;  // capacity-bounded
    size_t next = 0;              // overwrite cursor once full
    bool full = false;
  };

  Ring& track(NodeId node);
  void push(Ring& ring, const TraceEvent& event);

  i32 num_nodes_;
  size_t capacity_;
  std::vector<Ring> tracks_;  // [0, num_nodes) per node, last = machine-wide
  u64 dropped_ = 0;
};

/// ASCII utilization chart of a recorded run: one row per node over
/// `width` time buckets, glyphs " .:-=#%@" by the share of the bucket its
/// task spans cover, and a footer marking system phases, segment barriers
/// and recovery lines ('|') and crashes ('X'). Time runs from 0 to the
/// latest end among those records. A session that dropped events draws a
/// partial chart, so size it to hold the whole run.
std::string utilization_chart(const TraceSession& trace, i32 width = 72);

}  // namespace rips::obs
