// Dynamic load-balancing strategies (the paper's comparison baselines).
//
// A Strategy plugs into the DynamicEngine's discrete-event simulation: it
// decides where newly spawned tasks go and reacts to messages, idleness
// and load changes by migrating tasks. All CPU costs (sends, receives,
// task packing) are charged by the engine through its send/enqueue API, so
// strategies compete under the same cost model.
#pragma once

#include <string>

#include "util/types.hpp"

namespace rips::balance {

class DynamicEngine;

/// Strategy-defined message. `kind` is interpreted by the strategy
/// (negative kinds are reserved for the engine); a/b carry small scalars
/// (loads, amounts); num_tasks counts the tasks that migrated with it.
struct Message {
  i32 kind = 0;
  NodeId from = kInvalidNode;
  i64 a = 0;
  i64 b = 0;
  i64 num_tasks = 0;
  /// Engine-assigned correlation id, unique per run. The matching `send` /
  /// `recv` trace instants carry it as the "corr" payload so trace analysis
  /// can reconstruct the message edge (src/obs/analysis). Strategies never
  /// set or read it.
  i64 corr = -1;
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  virtual std::string name() const = 0;

  /// Called once before a run, after the engine sized its node state; use
  /// engine.topology() to size any per-node bookkeeping.
  virtual void reset(DynamicEngine& engine) { (void)engine; }

  /// A task was just created at `node` (parent completion or segment-root
  /// release). The strategy must place it: either
  /// engine.enqueue_local(node, task) or
  /// engine.send_spawned_task(node, to, task).
  virtual void on_spawn(DynamicEngine& engine, NodeId node, TaskId task) = 0;

  /// A strategy message arrived (migrated tasks are already enqueued at
  /// `node` by the engine before this hook runs).
  virtual void on_message(DynamicEngine& engine, NodeId node,
                          const Message& msg) = 0;

  /// `node` has just run out of work.
  virtual void on_idle(DynamicEngine& engine, NodeId node) {
    (void)engine;
    (void)node;
  }

  /// `node`'s queue length changed (hook for load-information protocols).
  virtual void on_load_change(DynamicEngine& engine, NodeId node) {
    (void)engine;
    (void)node;
  }
};

}  // namespace rips::balance
