#include "exec/sweep/runner.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
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

std::optional<Kind> parse_kind(const std::string& name) {
  if (name == "rips") return Kind::kRips;
  if (name == "random") return Kind::kRandom;
  if (name == "gradient") return Kind::kGradient;
  if (name == "rid") return Kind::kRid;
  if (name == "sid") return Kind::kSid;
  return std::nullopt;
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
                         const EngineTuning& tuning,
                         const core::TaskCosts* costs) {
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
    out.metrics = engine.run(workload.trace, costs);
    out.phases = engine.phases();
    out.registry = engine.metrics_registry();
    out.costs_built = engine.costs_built();
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

/// The drain-cost table of a (workload, local policy) key that two or more
/// RIPS rows of a sweep replay. The first row to start builds it under the
/// lock (a concurrent row of the key waits for it), every row reads it, and
/// the last row to finish frees it.
class SharedCosts {
 public:
  explicit SharedCosts(size_t rows) : rows_(rows) {}

  /// The key's table, built for `d` on first use; `*built` receives the
  /// tasks this call filled.
  const core::TaskCosts& acquire(const RunDescriptor& d, u64* built) {
    std::lock_guard<std::mutex> lock(mu_);
    if (table_ == nullptr) {
      auto table = std::make_unique<core::TaskCosts>();
      table->reset(d.workload->trace, d.workload->cost, d.config.local);
      table->extend();
      *built = table->drain.size();
      table_ = std::move(table);
    }
    return *table_;
  }

  /// One row of the key finished (or failed); the last frees the table.
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--rows_ == 0) table_.reset();
  }

 private:
  std::mutex mu_;
  std::unique_ptr<core::TaskCosts> table_;
  size_t rows_;  // rows of the key that have not finished
};

/// The body of one sweep slot: everything the run touches — session,
/// monitor, scheduler, engine, registry copy — is local to this call, so
/// concurrent slots share only the read-only workloads and, for a RIPS row
/// whose key repeats, the key's cost table.
RunResult run_one(const RunDescriptor& d, SharedCosts* shared) {
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
    u64 built = 0;
    const core::TaskCosts* costs =
        shared != nullptr ? &shared->acquire(d, &built) : nullptr;
    result.run = run_strategy(*d.workload, d.nodes, d.kind, d.rid_u, d.config,
                              o, d.fault_plan, d.tuning, costs);
    result.run.costs_built += built;
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
  // Group the RIPS rows by (workload, local policy): a key that two or
  // more rows replay gets one shared cost table. group[i] is the first row
  // of i's key (i itself for any other row).
  const size_t count = descriptors.size();
  std::vector<size_t> group(count);
  std::map<std::pair<const apps::Workload*, core::LocalPolicy>, size_t> first;
  std::vector<size_t> rows(count, 0);
  for (size_t i = 0; i < count; ++i) {
    const RunDescriptor& d = descriptors[i];
    group[i] = i;
    if (d.kind == Kind::kRips && d.workload != nullptr) {
      group[i] = first.try_emplace({d.workload, d.config.local}, i)
                     .first->second;
    }
    rows[group[i]] += 1;
  }
  std::vector<std::unique_ptr<SharedCosts>> shared(count);
  for (size_t g = 0; g < count; ++g) {
    if (rows[g] >= 2) shared[g] = std::make_unique<SharedCosts>(rows[g]);
  }

  // Longest-first start order (stable on ties => deterministic schedule),
  // except that the rows of a key start one after another, at its longest
  // row's place: a table lives from its first row to its last, so the
  // tables alive at once stay bounded by the thread count. Slot i of
  // `results` is always descriptor i, whatever the start order.
  std::vector<double> group_hint(count,
                                 std::numeric_limits<double>::lowest());
  for (size_t i = 0; i < count; ++i) {
    group_hint[group[i]] =
        std::max(group_hint[group[i]], descriptors[i].cost_hint);
  }
  std::vector<size_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (group[a] != group[b]) {
      if (group_hint[group[a]] != group_hint[group[b]]) {
        return group_hint[group[a]] > group_hint[group[b]];
      }
      return group[a] < group[b];
    }
    return descriptors[a].cost_hint > descriptors[b].cost_hint;
  });

  std::vector<RunResult> results(count);
  parallel_for(count, jobs, [&](size_t k) {
    const size_t i = order[k];
    SharedCosts* costs = shared[group[i]].get();
    results[i] = run_one(descriptors[i], costs);
    if (costs != nullptr) costs->release();
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
