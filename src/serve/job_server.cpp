#include "serve/job_server.hpp"

#include <chrono>
#include <utility>

#include "apps/online_source.hpp"
#include "obs/json.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "topo/topology.hpp"
#include "util/check.hpp"

namespace rips::serve {

using obs::json::quoted;

/// TaskSource adapter: the OnlineJobs trace lives here (mutated only on
/// the engine thread, inside poll and retire, per the TaskSource contract)
/// while all queueing state lives in the JobServer under its mutex.
class JobServer::QueueSource final : public exec::TaskSource {
 public:
  explicit QueueSource(JobServer* server) : server_(server) {}

  const apps::TaskTrace& trace() const override { return jobs_.trace(); }
  Poll poll(const EngineView& view, std::vector<TaskId>* new_roots,
            SimTime* advance_ns) override {
    return server_->engine_poll(view, new_roots, advance_ns);
  }
  bool retire() override {
    jobs_.retire();
    return true;
  }
  const std::vector<i32>* job_of() const override { return &jobs_.job_of(); }
  i32 num_jobs() const override { return jobs_.num_jobs(); }

  apps::OnlineJobs jobs_;  // engine thread only (inside poll and retire)

 private:
  JobServer* server_;
};

JobServer::JobServer(ServeOptions options)
    : options_(std::move(options)),
      admission_(options_.admission),
      recorder_(options_.blackbox_path) {
  RIPS_CHECK_MSG(options_.nodes >= 1 && options_.nodes <= 4096,
                 "serve: nodes must be in [1, 4096]");
  c_submitted_ = &server_registry_.counter("server.submitted");
  c_accepted_ = &server_registry_.counter("server.accepted");
  c_rej_queue_ = &server_registry_.counter("server.rejected_queue_full");
  c_rej_tenant_ = &server_registry_.counter("server.rejected_tenant_cap");
  c_rej_draining_ = &server_registry_.counter("server.rejected_draining");
  c_rej_too_large_ = &server_registry_.counter("server.rejected_too_large");
  c_malformed_ = &server_registry_.counter("server.malformed");
  c_oversized_ = &server_registry_.counter("server.oversized");
  c_jobs_done_ = &server_registry_.counter("server.jobs_done");
  bus_.subscribe(&recorder_);
}

JobServer::~JobServer() { shutdown(); }

void JobServer::start() {
  std::lock_guard<std::mutex> lock(mu_);
  RIPS_CHECK_MSG(!started_, "JobServer::start called twice");
  started_ = true;
  source_ = std::make_unique<QueueSource>(this);
  engine_thread_ = std::thread([this] { engine_main(); });
}

void JobServer::engine_main() {
  const topo::MeshShape shape = topo::paper_mesh_shape(options_.nodes);
  topo::Mesh mesh(shape.rows, shape.cols);
  sched::Mwa mwa(mesh);
  sim::CostModel cost;
  cost.ns_per_work = options_.ns_per_work;
  core::RipsEngine engine(mwa, cost, options_.config);
  // No per-phase registry snapshots: the registry keeps only the first
  // MetricsRegistry::kMaxSnapshots (256) phases, the first moments of a
  // session that can run for hours, and each one copies every instrument.
  engine.set_phase_snapshots(false);
  obs::Obs o;
  o.bus = &bus_;
  if (options_.monitors) o.monitor = &monitor_;
  engine.set_obs(o);

  sim::RunMetrics m = engine.run_online(*source_);
  for (size_t j = 0; j < m.jobs.size(); ++j) {
    m.jobs[j].name = source_->jobs_.name(static_cast<i32>(j));
  }
  std::string registry_json = engine.metrics_registry().to_json();
  const bool mon_ok = !options_.monitors || monitor_.ok();

  std::lock_guard<std::mutex> lock(mu_);
  result_ = std::move(m);
  engine_registry_json_ = std::move(registry_json);
  monitors_ok_ = mon_ok;
  sim_now_ = result_.makespan_ns;
  executed_total_ = result_.num_tasks;
  finished_ = true;
}

exec::TaskSource::Poll JobServer::engine_poll(
    const exec::TaskSource::EngineView& view, std::vector<TaskId>* new_roots,
    SimTime* advance_ns) {
  *advance_ns = 0;
  std::unique_lock<std::mutex> lock(mu_);
  sim_now_ = view.now;
  executed_total_ = view.executed_total;
  held_tasks_ = source_->jobs_.trace().size();  // after any retirement

  // Completion detection: job j (engine index) is done exactly when its
  // cumulative executed count reaches the task count it contributed.
  if (view.job_executed != nullptr) {
    for (i32 j = 0; j < view.num_jobs; ++j) {
      Job& job = jobs_[engine_to_job_[static_cast<size_t>(j)]];
      if (job.state == Job::State::kRunning &&
          view.job_executed[j] >= job.tasks) {
        job.state = Job::State::kDone;
        job.done_ns = view.now;
        running_ -= 1;
        jobs_done_ += 1;
        tenant_active_[job.tenant] -= 1;
        c_jobs_done_->add();
      }
    }
  }

  if (view.machine_idle && pending_.empty() && !draining_) {
    // The simulated machine is out of work: block in wall-clock time for
    // the next submission and charge the wait to the simulated clock, so
    // queueing latency and execution latency share one timebase. While we
    // wait, sim_now_ is frozen; publish the wait's start so submit() can
    // timestamp arrivals at wait-start-sim + elapsed-wall instead of the
    // stale clock (otherwise the first job after an idle stretch would be
    // charged the whole wait as queueing latency).
    idle_wait_active_ = true;
    idle_wait_sim_ = sim_now_;
    idle_wait_wall_ = std::chrono::steady_clock::now();
    cv_.wait(lock, [this] { return !pending_.empty() || draining_; });
    idle_wait_active_ = false;
    const auto waited =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - idle_wait_wall_)
            .count();
    *advance_ns = static_cast<SimTime>(waited < 0 ? 0 : waited);
    sim_now_ += *advance_ns;
  }

  bool injected = false;
  while (!pending_.empty()) {
    PendingJob p = std::move(pending_.front());
    pending_.pop_front();
    std::vector<TaskId> roots;
    const i32 engine_index = source_->jobs_.append_job(p.name, p.trace, &roots);
    RIPS_CHECK(static_cast<size_t>(engine_index) == engine_to_job_.size());
    Job& job = jobs_[static_cast<size_t>(p.id)];
    job.state = Job::State::kRunning;
    job.engine_index = engine_index;
    engine_to_job_.push_back(static_cast<size_t>(p.id));
    running_ += 1;
    new_roots->insert(new_roots->end(), roots.begin(), roots.end());
    injected = true;
  }
  held_tasks_ = source_->jobs_.trace().size();
  using Poll = exec::TaskSource::Poll;
  if (injected) return Poll::kNewWork;
  return draining_ ? Poll::kDrained : Poll::kIdle;
}

JobServer::SubmitOutcome JobServer::submit(const SubmitParams& params) {
  SubmitOutcome out;
  // Trace construction happens outside the lock: it is the expensive part
  // of a submission and touches no shared state. Construction itself is
  // bounded by the per-job cap — generation stops at cap + 1 tasks — so a
  // well-formed request for an astronomically large forest costs
  // O(max_job_tasks) and is rejected below, instead of OOMing the daemon
  // before admission control ever runs.
  apps::TaskTrace trace = build_job_trace(params, options_.max_job_tasks);

  std::lock_guard<std::mutex> lock(mu_);
  RIPS_CHECK_MSG(started_, "submit before JobServer::start");
  c_submitted_->add();
  if (static_cast<u64>(trace.size()) > options_.max_job_tasks) {
    c_rej_too_large_->add();
    out.code = 400;
    out.error = "job too large: exceeds the per-job cap of " +
                std::to_string(options_.max_job_tasks) + " tasks";
    return out;
  }
  i32 tenant_active = 0;
  const auto it = tenant_active_.find(params.tenant);
  if (it != tenant_active_.end()) tenant_active = it->second;
  const AdmissionVerdict verdict = admission_.check(
      static_cast<i32>(pending_.size()), tenant_active, draining_);
  if (!verdict.admitted) {
    if (verdict.code == 409) {
      c_rej_draining_->add();
    } else if (verdict.reason == std::string_view("pending queue full")) {
      c_rej_queue_->add();
    } else {
      c_rej_tenant_->add();
    }
    out.code = verdict.code;
    out.error = verdict.reason;
    out.retry_after_ms = verdict.retry_after_ms;
    return out;
  }

  const i64 id = static_cast<i64>(jobs_.size());
  Job job;
  job.id = id;
  job.tenant = params.tenant;
  job.name = params.name.empty()
                 ? params.tenant + "/job-" + std::to_string(id)
                 : params.name;
  job.tasks = static_cast<u64>(trace.size());
  // If the engine thread is parked in the idle wait, sim_now_ is frozen at
  // the wait's start; timestamp the arrival at wait-start-sim plus the
  // wall time elapsed since, which is exactly where the engine's clock
  // will have advanced past when it wakes (it adds the full wait).
  job.submit_ns = sim_now_;
  if (idle_wait_active_) {
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - idle_wait_wall_)
            .count();
    job.submit_ns =
        idle_wait_sim_ + static_cast<SimTime>(elapsed < 0 ? 0 : elapsed);
  }
  jobs_.push_back(job);
  tenant_active_[params.tenant] += 1;
  pending_.push_back(PendingJob{id, job.name, std::move(trace)});
  c_accepted_->add();

  out.ok = true;
  out.job_id = id;
  out.tasks = job.tasks;
  out.pending = static_cast<i32>(pending_.size());
  cv_.notify_all();
  return out;
}

void JobServer::drain_locked() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    if (!started_) finished_ = true;  // nothing ever ran
  }
  cv_.notify_all();
  if (engine_thread_.joinable()) engine_thread_.join();
}

void JobServer::drain() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  drain_locked();
}

bool JobServer::shutdown() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  drain_locked();
  if (shutdown_done_) return false;
  shutdown_done_ = true;
  recorder_.dump("shutdown");
  return true;
}

std::string JobServer::handle_line(std::string_view line,
                                   bool* shutdown_requested) {
  if (shutdown_requested != nullptr) *shutdown_requested = false;
  if (line.size() > kMaxFrame) {
    std::lock_guard<std::mutex> lock(mu_);
    c_oversized_->add();
    return error_reply("", 413,
                       "request frame exceeds " + std::to_string(kMaxFrame) +
                           " bytes");
  }
  const ParseOutcome parsed = parse_request(line);
  if (!parsed.ok) {
    std::lock_guard<std::mutex> lock(mu_);
    c_malformed_->add();
    return error_reply(parsed.op, parsed.code, parsed.error);
  }

  switch (parsed.request.op) {
    case Request::Op::kPing:
      return ok_reply("ping", ",\"server\":\"rips_served\"");
    case Request::Op::kSubmit: {
      const SubmitOutcome out = submit(parsed.request.submit);
      if (!out.ok) {
        return error_reply("submit", out.code, out.error, out.retry_after_ms);
      }
      return ok_reply("submit", ",\"job\":" + std::to_string(out.job_id) +
                                    ",\"tasks\":" + std::to_string(out.tasks) +
                                    ",\"pending\":" +
                                    std::to_string(out.pending));
    }
    case Request::Op::kStatus:
      return status_reply(parsed.request.job_id);
    case Request::Op::kStats:
      return stats_reply();
    case Request::Op::kDrain: {
      drain();
      std::lock_guard<std::mutex> lock(mu_);
      return ok_reply("drain",
                      ",\"jobs_done\":" + std::to_string(jobs_done_) +
                          ",\"monitors_ok\":" +
                          (monitors_ok_ ? "true" : "false"));
    }
    case Request::Op::kShutdown: {
      const bool first = shutdown();
      if (shutdown_requested != nullptr) *shutdown_requested = true;
      std::lock_guard<std::mutex> lock(mu_);
      return ok_reply("shutdown",
                      ",\"already\":" + std::string(first ? "false" : "true") +
                          ",\"jobs_done\":" + std::to_string(jobs_done_));
    }
  }
  return error_reply(parsed.op, 500, "unhandled op");
}

std::string JobServer::status_reply(i64 job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (job_id < 0 || static_cast<size_t>(job_id) >= jobs_.size()) {
    return error_reply("status", 404,
                       "unknown job id " + std::to_string(job_id));
  }
  const Job& job = jobs_[static_cast<size_t>(job_id)];
  const char* state = job.state == Job::State::kQueued    ? "queued"
                      : job.state == Job::State::kRunning ? "running"
                                                          : "done";
  std::string extra = ",\"job\":" + std::to_string(job.id) +
                      ",\"tenant\":" + quoted(job.tenant) +
                      ",\"name\":" + quoted(job.name) +
                      ",\"state\":" + quoted(state) +
                      ",\"tasks\":" + std::to_string(job.tasks) +
                      ",\"submit_ns\":" + std::to_string(job.submit_ns);
  if (job.state == Job::State::kDone) {
    extra += ",\"done_ns\":" + std::to_string(job.done_ns) +
             ",\"latency_ns\":" + std::to_string(job.done_ns - job.submit_ns);
  }
  return ok_reply("status", extra);
}

std::string JobServer::stats_reply() const {
  std::lock_guard<std::mutex> lock(mu_);
  // One reply line per request: fold the pretty-printed registry onto it.
  std::string server = server_registry_.to_json();
  std::replace(server.begin(), server.end(), '\n', ' ');
  std::string extra =
      ",\"jobs\":" + std::to_string(jobs_.size()) +
      ",\"pending\":" + std::to_string(pending_.size()) +
      ",\"running\":" + std::to_string(running_) +
      ",\"jobs_done\":" + std::to_string(jobs_done_) +
      ",\"executed_total\":" + std::to_string(executed_total_) +
      ",\"held_tasks\":" + std::to_string(held_tasks_) +
      ",\"sim_now_ns\":" + std::to_string(sim_now_) +
      ",\"draining\":" + (draining_ ? "true" : "false") +
      ",\"finished\":" + (finished_ ? "true" : "false") +
      ",\"server\":" + server;
  return ok_reply("stats", extra);
}

u64 JobServer::executed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_total_;
}
u64 JobServer::held_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return held_tasks_;
}
i32 JobServer::pending_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<i32>(pending_.size());
}
i32 JobServer::running_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}
u64 JobServer::jobs_done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_done_;
}
bool JobServer::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}
bool JobServer::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_;
}

const sim::RunMetrics& JobServer::result() const {
  std::lock_guard<std::mutex> lock(mu_);
  RIPS_CHECK_MSG(finished_, "result() before drain()");
  return result_;
}

bool JobServer::monitors_ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return monitors_ok_;
}

std::string JobServer::bench_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  RIPS_CHECK_MSG(finished_, "bench_json() before drain()");

  // A session in which no job ever ran has no meaningful run row (the
  // engine never executed a task); emit an empty suite.
  std::vector<sim::BenchRow> rows;
  if (started_ && result_.num_tasks > 0) {
    sim::BenchRow row;
    row.workload = "served";
    row.group = "serve";
    row.scheduler = "RIPS";
    row.policy = core::policy_flag(options_.config);
    row.nodes = options_.nodes;
    row.metrics = result_;
    row.monitors_ok = monitors_ok_;
    row.registry_json = engine_registry_json_;
    // Every job the engine ran contributes one latency sample.
    for (size_t j = 0; j < result_.jobs.size() && j < engine_to_job_.size();
         ++j) {
      row.job_submit_ns.push_back(jobs_[engine_to_job_[j]].submit_ns);
    }
    row.jobs_done = jobs_done_;
    rows.push_back(std::move(row));
  }
  return sim::bench_doc_json("serve", false, options_.nodes, rows);
}

}  // namespace rips::serve
