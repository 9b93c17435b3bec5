// Micro benchmarks (google-benchmark): wall-clock scaling of the parallel
// scheduling algorithms and the flow solver with machine size — the
// "runtime cost of the system phase" on the host running the simulation.
// The paper's complexity argument (O(n^2 v) flow vs linear-step MWA,
// Section 3) shows up directly in these curves.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "flow/mincost_flow.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/task_queue.hpp"
#include "util/rng.hpp"

namespace {

using namespace rips;

std::vector<i64> random_load(i32 n, i64 mean, u64 seed) {
  Rng rng(seed);
  std::vector<i64> load(static_cast<size_t>(n));
  for (auto& w : load) w = static_cast<i64>(rng.next_below(2 * mean + 1));
  return load;
}

void BM_Mwa(benchmark::State& state) {
  const auto n = static_cast<i32>(state.range(0));
  auto sched = sched::make_scheduler("mwa", n);
  const auto load = random_load(n, 50, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched->schedule(load));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Mwa)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void BM_Twa(benchmark::State& state) {
  const auto n = static_cast<i32>(state.range(0));
  auto sched = sched::make_scheduler("twa", n);
  const auto load = random_load(n, 50, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched->schedule(load));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Twa)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void BM_DemHypercube(benchmark::State& state) {
  const auto n = static_cast<i32>(state.range(0));
  auto sched = sched::make_scheduler("dem", n);
  const auto load = random_load(n, 50, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched->schedule(load));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_DemHypercube)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void BM_RingScan(benchmark::State& state) {
  const auto n = static_cast<i32>(state.range(0));
  auto sched = sched::make_scheduler("ring", n);
  const auto load = random_load(n, 50, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched->schedule(load));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_RingScan)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void BM_OptimalFlow(benchmark::State& state) {
  const auto n = static_cast<i32>(state.range(0));
  auto sched = sched::make_scheduler("optimal", n);
  const auto load = random_load(n, 50, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched->schedule(load));
  }
  state.SetComplexityN(n);
}
// The flow-based optimum is the expensive one ("not realistic for runtime
// scheduling"); cap the sweep so the bench binary stays fast.
BENCHMARK(BM_OptimalFlow)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

void BM_MinCostFlowSolve(benchmark::State& state) {
  const auto n = static_cast<i32>(state.range(0));
  const auto shape = topo::paper_mesh_shape(n);
  topo::Mesh mesh(shape.rows, shape.cols);
  const auto load = random_load(n, 50, 6);
  const i64 total = std::accumulate(load.begin(), load.end(), i64{0});
  const auto quota = sched::quota_for(total, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::optimal_balance_cost(mesh, load, quota));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MinCostFlowSolve)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

// The simulator hot path: every simulated message/task completion is one
// EventQueue push+pop. Steady-state churn at the dynamic engine's measured
// depth — ~14K events in flight over ~64 busy lanes on the 32-node Table I
// rows: each pop re-schedules on its own lane a random interval past
// max(lane tail, now), as the engine does for a node's next completion or
// message. The cost follows the number of lanes, not the number of events.
void BM_EventQueueChurn(benchmark::State& state) {
  constexpr size_t kLanes = 64;
  const auto pending = static_cast<size_t>(state.range(0));
  sim::EventQueue<i64> queue(kLanes);
  std::vector<SimTime> tail(kLanes, 0);
  Rng rng(7);
  for (size_t i = 0; i < pending; ++i) {
    const size_t lane = i % kLanes;
    tail[lane] += static_cast<SimTime>(rng.next_below(1000));
    queue.push(lane, tail[lane], static_cast<i64>(lane));
  }
  for (auto _ : state) {
    auto ev = queue.pop();
    const auto lane = static_cast<size_t>(ev.payload);
    tail[lane] = std::max(tail[lane], ev.time) +
                 static_cast<SimTime>(rng.next_below(1000));
    queue.push(lane, tail[lane], ev.payload);
    benchmark::DoNotOptimize(ev.time);
  }
}
BENCHMARK(BM_EventQueueChurn)->Arg(1024)->Arg(14 * 1024);

// Per-node ready queue: FIFO churn at a steady depth of `range` tasks.
// Crosses the head-compaction threshold constantly, so the amortized
// pop_front cost (cursor bump + occasional memmove) is what's measured.
void BM_TaskQueueFifoChurn(benchmark::State& state) {
  const auto depth = static_cast<size_t>(state.range(0));
  sim::TaskQueue queue;
  queue.reserve(2 * depth);
  for (size_t i = 0; i < depth; ++i) queue.push_back(static_cast<TaskId>(i));
  TaskId next = static_cast<TaskId>(depth);
  for (auto _ : state) {
    const TaskId task = queue.pop_front();
    benchmark::DoNotOptimize(task);
    queue.push_back(next++);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TaskQueueFifoChurn)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity();

// End-of-phase checkpoint snapshot, CSR layout (what RipsEngine ships):
// one offsets array + one flat task array, both reused across phases, so
// the steady-state rebuild is two assigns and a bulk copy — zero
// allocations once warm, and the flat array is a single cache stream.
void BM_PhaseCheckpointCsr(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  constexpr size_t kTasksPerNode = 32;
  std::vector<std::vector<TaskId>> rte(n);
  for (size_t p = 0; p < n; ++p) {
    rte[p].assign(kTasksPerNode, static_cast<TaskId>(p));
  }
  std::vector<size_t> offsets;
  std::vector<TaskId> tasks;
  for (auto _ : state) {
    offsets.assign(n + 1, 0);
    tasks.clear();
    for (size_t p = 0; p < n; ++p) {
      tasks.insert(tasks.end(), rte[p].begin(), rte[p].end());
      offsets[p + 1] = tasks.size();
    }
    benchmark::DoNotOptimize(tasks.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PhaseCheckpointCsr)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity();

// The layout the CSR replaced: a vector-of-vectors rebuilt every phase.
// clear() keeps the outer buffer but every per-node copy still manages an
// inner vector — n little capacity checks and scattered heap blocks
// instead of one flat stream.
void BM_PhaseCheckpointNested(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  constexpr size_t kTasksPerNode = 32;
  std::vector<std::vector<TaskId>> rte(n);
  for (size_t p = 0; p < n; ++p) {
    rte[p].assign(kTasksPerNode, static_cast<TaskId>(p));
  }
  std::vector<std::vector<TaskId>> snapshot;
  for (auto _ : state) {
    snapshot.resize(n);
    for (size_t p = 0; p < n; ++p) {
      snapshot[p].assign(rte[p].begin(), rte[p].end());
    }
    benchmark::DoNotOptimize(snapshot.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PhaseCheckpointNested)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity();

// Cold scheduler cost: construct + first schedule every iteration. The
// delta against BM_Mwa (same n, warm arenas) is what the reusable
// ScheduleResult/scratch members buy each system phase.
void BM_MwaColdConstruct(benchmark::State& state) {
  const auto n = static_cast<i32>(state.range(0));
  const auto load = random_load(n, 50, 9);
  for (auto _ : state) {
    auto sched = sched::make_scheduler("mwa", n);
    benchmark::DoNotOptimize(sched->schedule(load));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MwaColdConstruct)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity();

// Cost of an instrumentation site when tracing is off vs on. The engines
// call obs::span() on every task / phase; the disabled case must be a
// null-check and nothing else, so attaching no trace session keeps the
// simulation at its uninstrumented speed.
void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::TraceSession* session = nullptr;
  SimTime t = 0;
  for (auto _ : state) {
    obs::span(session, 0, obs::record::kTask, t, t + 100, 1);
    benchmark::DoNotOptimize(t += 100);
  }
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::TraceSession session(1, 1 << 10);  // small ring: steady-state overwrite
  SimTime t = 0;
  for (auto _ : state) {
    obs::span(&session, 0, obs::record::kTask, t, t + 100, 1);
    benchmark::DoNotOptimize(t += 100);
  }
}
BENCHMARK(BM_ObsSpanEnabled);

// Same discipline for the phase records: every phase boundary goes
// through Obs::phase, so with no trace and no bus attached the cost must
// be one test-and-branch (matching BM_ObsSpanDisabled) — CI asserts the
// disabled case stays ~1 ns.
void BM_TelemetryPublishDisabled(benchmark::State& state) {
  obs::Obs o;
  obs::PhaseSample sample{};
  sample.kind = obs::PhaseKind::kSystem;
  SimTime t = 0;
  for (auto _ : state) {
    o.phase(sample);  // the engines' publish site
    benchmark::DoNotOptimize(o);
    benchmark::DoNotOptimize(t += 100);
  }
}
BENCHMARK(BM_TelemetryPublishDisabled);

void BM_TelemetryPublishEnabled(benchmark::State& state) {
  obs::TelemetryBus bus;
  obs::FlightRecorder recorder;  // the always-on subscriber: ring write
  bus.subscribe(&recorder);
  obs::PhaseSample sample{};
  sample.kind = obs::PhaseKind::kSystem;
  obs::Obs o;
  o.bus = &bus;
  SimTime t = 0;
  for (auto _ : state) {
    o.phase(sample);
    benchmark::DoNotOptimize(t += 100);
  }
}
BENCHMARK(BM_TelemetryPublishEnabled);

}  // namespace

BENCHMARK_MAIN();
