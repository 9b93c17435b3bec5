#include "exec/sweep/runner.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "balance/engine.hpp"
#include "balance/gradient.hpp"
#include "balance/random_alloc.hpp"
#include "balance/rid.hpp"
#include "balance/sender_initiated.hpp"
#include "exec/sweep/sweep.hpp"
#include "sched/mwa.hpp"
#include "topo/topology.hpp"
#include "util/check.hpp"

namespace rips::sweep {

std::string kind_name(Kind kind) {
  switch (kind) {
    case Kind::kRandom:
      return "Random";
    case Kind::kGradient:
      return "Gradient";
    case Kind::kRid:
      return "RID";
    case Kind::kRips:
      return "RIPS";
    case Kind::kSid:
      return "SID";
  }
  return "?";
}

namespace {

/// Stamps the workload's job names onto the per-job metric rows (the
/// engines know tasks only by job index).
void name_jobs(const apps::Workload& workload, sim::RunMetrics& metrics) {
  for (size_t j = 0; j < metrics.jobs.size(); ++j) {
    if (j < workload.job_names.size()) {
      metrics.jobs[j].name = workload.job_names[j];
    }
  }
}

}  // namespace

StrategyRun run_strategy(const apps::Workload& workload, i32 nodes, Kind kind,
                         double rid_u, core::RipsConfig config,
                         const obs::Obs& o, const sim::FaultPlan* fault_plan,
                         const EngineTuning& tuning) {
  const topo::MeshShape shape = topo::paper_mesh_shape(nodes);
  topo::Mesh mesh(shape.rows, shape.cols);

  // Multi-job workloads carry a per-task owner map; attaching it turns on
  // the engines' per-job (tenant) accounting.
  const std::vector<i32>* job_of =
      workload.job_of.empty() ? nullptr : &workload.job_of;
  const i32 num_jobs = static_cast<i32>(workload.job_names.size());

  StrategyRun out;
  out.strategy = kind_name(kind);
  if (kind == Kind::kRips) {
    sched::Mwa mwa(mesh);
    core::RipsEngine engine(mwa, workload.cost, config);
    engine.set_obs(o);
    engine.set_fault_plan(fault_plan);
    engine.set_phase_snapshots(tuning.phase_snapshots);
    engine.set_job_map(job_of, num_jobs);
    out.metrics = engine.run(workload.trace);
    out.phases = engine.phases();
    out.registry = engine.metrics_registry();
    name_jobs(workload, out.metrics);
    return out;
  }

  // Dynamic strategies share the event-driven engine.
  const std::unique_ptr<balance::Strategy> strategy =
      make_dynamic_strategy(kind, rid_u);
  balance::DynamicEngine engine(mesh, workload.cost, *strategy);
  engine.set_obs(o);
  engine.set_job_map(job_of, num_jobs);
  out.metrics = engine.run(workload.trace);
  out.registry = engine.metrics_registry();
  name_jobs(workload, out.metrics);
  return out;
}

std::unique_ptr<balance::Strategy> make_dynamic_strategy(Kind kind,
                                                         double rid_u) {
  switch (kind) {
    case Kind::kRandom:
      return std::make_unique<balance::RandomAlloc>(/*seed=*/0xC0FFEE);
    case Kind::kGradient:
      return std::make_unique<balance::Gradient>();
    case Kind::kRid: {
      balance::Rid::Params params;
      params.u = rid_u;
      return std::make_unique<balance::Rid>(params);
    }
    case Kind::kSid:
      return std::make_unique<balance::SenderInitiated>();
    case Kind::kRips:
      break;
  }
  RIPS_CHECK_MSG(false, "RIPS is not a dynamic strategy");
  return nullptr;
}

std::vector<Kind> table1_kinds() {
  return {Kind::kRandom, Kind::kGradient, Kind::kRid, Kind::kRips};
}

namespace {

/// The body of one sweep slot: everything the run touches — session,
/// monitor, scheduler, engine, registry copy — is local to this call, so
/// concurrent slots share only the read-only workloads.
RunResult run_one(const RunDescriptor& d) {
  const auto wall_start = std::chrono::steady_clock::now();
  RunResult result;
  std::shared_ptr<obs::TraceSession> trace;
  std::shared_ptr<obs::TimeSeriesSampler> timeseries;
  obs::InvariantMonitor monitor;
  // The bus lives on this slot's stack: per-run isolation is structural,
  // not a locking discipline — a concurrent run cannot even name it.
  obs::TelemetryBus bus;
  obs::Obs o;
  const bool monitored = d.monitor && d.kind == Kind::kRips;
  try {
    if (d.workload == nullptr) {
      throw std::invalid_argument("sweep descriptor lacks a workload");
    }
    if (d.collect_trace) {
      trace = std::make_shared<obs::TraceSession>(d.nodes);
      o.trace = trace.get();
    }
    if (monitored) o.monitor = &monitor;
    if (d.collect_timeseries) {
      timeseries = std::make_shared<obs::TimeSeriesSampler>();
      timeseries->set_label(d.workload->name + "/" + kind_name(d.kind) + "/n" +
                            std::to_string(d.nodes));
      bus.subscribe(timeseries.get());
    }
    if (d.live != nullptr) bus.subscribe(d.live);
    if (!bus.empty()) o.bus = &bus;
    result.run = run_strategy(*d.workload, d.nodes, d.kind, d.rid_u, d.config,
                              o, d.fault_plan, d.tuning);
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
    return result;
  }
  result.wall_ms =
      1e-6 * static_cast<double>(std::chrono::duration_cast<
                                     std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now() -
                                     wall_start)
                                     .count());
  result.trace = std::move(trace);
  result.timeseries = std::move(timeseries);
  if (monitored && !monitor.ok()) {
    result.monitors_ok = false;
    result.monitor_report = monitor.report();
  }
  return result;
}

}  // namespace

std::vector<RunResult> run_sweep(const std::vector<RunDescriptor>& descriptors,
                                 i32 jobs) {
  // Longest-first start order (stable on ties => deterministic schedule);
  // slot i of `results` is always descriptor i, whatever the start order.
  std::vector<size_t> order(descriptors.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return descriptors[a].cost_hint > descriptors[b].cost_hint;
  });

  std::vector<RunResult> results(descriptors.size());
  parallel_for(descriptors.size(), jobs, [&](size_t k) {
    const size_t i = order[k];
    results[i] = run_one(descriptors[i]);
  });
  return results;
}

std::vector<apps::Workload> build_workloads(
    const std::vector<apps::WorkloadSpec>& specs, i32 jobs) {
  std::vector<apps::Workload> out(specs.size());
  parallel_for(specs.size(), jobs,
               [&](size_t i) { out[i] = specs[i].build(); });
  return out;
}

}  // namespace rips::sweep
