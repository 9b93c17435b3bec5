// Extending the library: implement your own load-balancing strategy
// against the DynamicEngine hooks and benchmark it against the built-ins
// on the same trace.
//
// The example strategy is a simple randomized work-stealing scheme: an
// idle node asks one random victim for half its queue. Work stealing
// post-dates the paper (Cilk, 1995+) and makes a nice "what came next"
// comparison point for RIPS.
//
//   ./custom_strategy [--nodes=32] [--queens=12]
#include <cstdio>

#include "apps/nqueens.hpp"
#include "balance/engine.hpp"
#include "balance/random_alloc.hpp"
#include "balance/rid.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "topo/topology.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace rips;

/// Randomized work stealing: on idle, pick a uniformly random victim and
/// request half of its queue. One outstanding steal at a time.
class WorkStealing final : public balance::Strategy {
 public:
  explicit WorkStealing(u64 seed) : seed_(seed), rng_(seed) {}

  std::string name() const override { return "work-stealing"; }

  void reset(balance::DynamicEngine& engine) override {
    rng_ = Rng(seed_);
    const auto n = static_cast<size_t>(engine.topology().size());
    stealing_.assign(n, false);
    failures_.assign(n, 0);
    max_failures_ = 2 * engine.topology().size();
  }

  void on_spawn(balance::DynamicEngine& engine, NodeId node,
                TaskId task) override {
    engine.enqueue_local(node, task);  // spawn locally, steal when idle
  }

  void on_idle(balance::DynamicEngine& engine, NodeId node) override {
    // Give up after enough consecutive failed steals so the run (and the
    // simulation) quiesces when no work is left anywhere.
    if (stealing_[static_cast<size_t>(node)]) return;
    if (failures_[static_cast<size_t>(node)] >= max_failures_) return;
    const auto n = static_cast<u64>(engine.topology().size());
    NodeId victim = static_cast<NodeId>(rng_.next_below(n));
    if (victim == node) victim = static_cast<NodeId>((victim + 1) % n);
    stealing_[static_cast<size_t>(node)] = true;
    engine.send_message(node, victim, kStealRequest);
  }

  void on_message(balance::DynamicEngine& engine, NodeId node,
                  const balance::Message& msg) override {
    if (msg.kind == kStealRequest) {
      const i64 half = engine.queued_of(node) / 2;
      engine.send_message(node, msg.from, kStolenTasks, /*a=*/0, /*b=*/0,
                          /*max_tasks=*/half);
    } else if (msg.kind == kStolenTasks) {
      stealing_[static_cast<size_t>(node)] = false;
      if (msg.num_tasks == 0) {
        failures_[static_cast<size_t>(node)] += 1;
        on_idle(engine, node);  // try another victim
      } else {
        failures_[static_cast<size_t>(node)] = 0;
      }
    }
  }

 private:
  static constexpr i32 kStealRequest = 1;
  static constexpr i32 kStolenTasks = 2;

  u64 seed_;
  Rng rng_;
  std::vector<bool> stealing_;
  std::vector<i32> failures_;
  i32 max_failures_ = 64;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const i32 nodes = static_cast<i32>(args.get_int("nodes", 32));
  const i32 queens = static_cast<i32>(args.get_int("queens", 12));

  const apps::TaskTrace trace = apps::build_nqueens_trace(queens, 4);
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  const auto shape = topo::paper_mesh_shape(nodes);
  topo::Mesh mesh(shape.rows, shape.cols);

  std::printf("%d-queens (%s) on %s:\n\n", queens, trace.summary().c_str(),
              mesh.name().c_str());

  TextTable table;
  table.header({"strategy", "T (s)", "efficiency", "# non-local",
                "messages"});
  auto add = [&](const char* name, const sim::RunMetrics& m) {
    table.row({name, cell(m.exec_s(), 3), cell_pct(m.efficiency()),
               cell(static_cast<long long>(m.nonlocal_tasks)),
               cell(static_cast<long long>(m.messages))});
  };

  {
    WorkStealing steal(2718);
    balance::DynamicEngine engine(mesh, cost, steal);
    add("work stealing (custom)", engine.run(trace));
  }
  {
    balance::Rid rid;
    balance::DynamicEngine engine(mesh, cost, rid);
    add("RID", engine.run(trace));
  }
  {
    balance::RandomAlloc random(2718);
    balance::DynamicEngine engine(mesh, cost, random);
    add("random", engine.run(trace));
  }
  {
    sched::Mwa mwa(mesh);
    core::RipsEngine engine(mwa, cost, core::RipsConfig{});
    add("RIPS (ANY-Lazy, MWA)", engine.run(trace));
  }
  table.print();
  return 0;
}
