#include "obs/live_status.hpp"

namespace rips::obs {

LiveStatusPrinter::LiveStatusPrinter(Options options)
    : options_(options), start_(Clock::now()), last_print_(start_) {
  if (options_.out == nullptr) options_.out = stderr;
  if (options_.total_runs == 0) options_.total_runs = 1;
}

void LiveStatusPrinter::on_run_begin(const RunStart& run) {
  std::lock_guard<std::mutex> lock(mu_);
  tasks_total_ += run.num_tasks;
}

void LiveStatusPrinter::on_phase(const PhaseSample& sample) {
  std::lock_guard<std::mutex> lock(mu_);
  ++phases_seen_;
  if (sample.kind == PhaseKind::kSystem) {
    last_imbalance_ = sample.imbalance;
  } else {
    // User/segment samples carry the tasks executed in that phase.
    tasks_executed_ += sample.tasks;
  }
  print_locked(/*force=*/false);
}

void LiveStatusPrinter::on_event(const TelemetryEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (event.kind == TelemetryEvent::Kind::kCrash ||
      event.kind == TelemetryEvent::Kind::kMonitorViolation) {
    ++faults_;
  }
}

void LiveStatusPrinter::on_run_end(SimTime makespan_ns) {
  (void)makespan_ns;
  std::lock_guard<std::mutex> lock(mu_);
  ++runs_done_;
  print_locked(/*force=*/true);
}

void LiveStatusPrinter::finish() {
  std::lock_guard<std::mutex> lock(mu_);
  print_locked(/*force=*/true);
  if (printed_anything_) std::fprintf(options_.out, "\n");
  std::fflush(options_.out);
}

void LiveStatusPrinter::print_locked(bool force) {
  const Clock::time_point now = Clock::now();
  if (!force) {
    const auto since_last =
        std::chrono::duration_cast<std::chrono::milliseconds>(now -
                                                              last_print_);
    if (static_cast<u64>(since_last.count()) < options_.interval_ms &&
        printed_anything_) {
      return;
    }
  }
  last_print_ = now;
  printed_anything_ = true;

  const double elapsed_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(now - start_)
          .count();
  const double phase_rate =
      elapsed_s > 0.0 ? static_cast<double>(phases_seen_) / elapsed_s : 0.0;
  const double pct =
      tasks_total_ > 0
          ? 100.0 * static_cast<double>(tasks_executed_) /
                static_cast<double>(tasks_total_)
          : 0.0;
  double eta_s = 0.0;
  if (tasks_executed_ > 0 && tasks_total_ > tasks_executed_) {
    eta_s = elapsed_s *
            static_cast<double>(tasks_total_ - tasks_executed_) /
            static_cast<double>(tasks_executed_);
  }
  // Trailing spaces wipe leftovers of a longer previous line.
  std::fprintf(options_.out,
               "\r[live] runs %llu/%llu phases=%llu (%.0f/s) tasks=%.1f%% "
               "imb=%lld faults=%llu eta=%.1fs   ",
               static_cast<unsigned long long>(runs_done_),
               static_cast<unsigned long long>(options_.total_runs),
               static_cast<unsigned long long>(phases_seen_), phase_rate, pct,
               static_cast<long long>(last_imbalance_),
               static_cast<unsigned long long>(faults_), eta_s);
  std::fflush(options_.out);
}

}  // namespace rips::obs
