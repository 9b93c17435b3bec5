#include "obs/flight_recorder.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <utility>

#include "obs/json.hpp"

namespace rips::obs {

namespace {

// --- process hooks ----------------------------------------------------------
// One armed recorder per process. The pointer is written from arm/disarm
// (normal code) and cleared by the terminate handler; the signal handler
// only reads it.
FlightRecorder* g_armed = nullptr;
std::terminate_handler g_prev_terminate = nullptr;
bool g_hooks_installed = false;

constexpr int kSignals[] = {SIGABRT, SIGSEGV, SIGBUS, SIGFPE};

const char* signal_reason(int sig) {
  switch (sig) {
    case SIGABRT: return "signal:SIGABRT";
    case SIGSEGV: return "signal:SIGSEGV";
    case SIGBUS: return "signal:SIGBUS";
    case SIGFPE: return "signal:SIGFPE";
  }
  return "signal";
}

void black_box_signal_handler(int sig) {
  if (g_armed != nullptr && !g_armed->dump_path().empty()) {
    const int fd = ::open(g_armed->dump_path().c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      g_armed->dump_signal_safe(fd, signal_reason(sig));
      ::close(fd);
    }
  }
  // Hand the signal back to the default disposition so the process still
  // dies (and dumps core) the way it would have without the black box.
  std::signal(sig, SIG_DFL);
  ::raise(sig);
}

[[noreturn]] void black_box_terminate_handler() {
  // Disarm first: the abort() that ends the run would otherwise send the
  // signal path over this dump and replace its reason.
  FlightRecorder* const armed = std::exchange(g_armed, nullptr);
  if (armed != nullptr) armed->dump("terminate");
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

// --- signal-safe formatting -------------------------------------------------

void fd_write(int fd, const char* s, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, s, n);
    if (w <= 0) return;
    s += w;
    n -= static_cast<size_t>(w);
  }
}

void fd_puts(int fd, const char* s) { fd_write(fd, s, std::strlen(s)); }

void fd_num(int fd, long long v) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof buf, "%lld", v);
  if (n > 0) fd_write(fd, buf, static_cast<size_t>(n));
}

/// `"s"` escaped the way JSON requires (quotes, backslashes, control
/// characters), written in runs of plain characters.
void fd_quoted(int fd, const char* s) {
  fd_write(fd, "\"", 1);
  const char* run = s;
  for (; *s != '\0'; ++s) {
    const auto c = static_cast<unsigned char>(*s);
    if (c != '"' && c != '\\' && c >= 0x20) continue;
    fd_write(fd, run, static_cast<size_t>(s - run));
    char esc[8];
    const int n = c < 0x20 ? std::snprintf(esc, sizeof esc, "\\u%04x", c)
                           : std::snprintf(esc, sizeof esc, "\\%c", c);
    fd_write(fd, esc, static_cast<size_t>(n));
    run = s + 1;
  }
  fd_write(fd, run, static_cast<size_t>(s - run));
  fd_write(fd, "\"", 1);
}

}  // namespace

FlightRecorder::FlightRecorder(std::string dump_path, Options ring)
    : TimeSeriesSampler(ring), dump_path_(std::move(dump_path)) {}

FlightRecorder::~FlightRecorder() {
  if (g_armed == this) disarm_process_hooks();
}

void FlightRecorder::on_job_phase(const PhaseSample&, std::span<const u64>) {}

void FlightRecorder::on_event(const TelemetryEvent& event) {
  TimeSeriesSampler::on_event(event);
  if (event.kind == TelemetryEvent::Kind::kCrash) dump("fault");
  if (event.kind == TelemetryEvent::Kind::kMonitorViolation) {
    dump("monitor_violation");
  }
}

bool FlightRecorder::dump(const char* reason, const std::string& path) {
  const std::string& target = path.empty() ? dump_path_ : path;
  if (target.empty()) return false;
  std::ofstream out(target, std::ios::binary);
  out << "{\"schema\":\"rips-timeseries-v1\",\"reason\":"
      << json::quoted(reason) << ",\"series\":[" << series_json() << "]}\n";
  if (!out) return false;
  ++dumps_written_;
  return true;
}

void FlightRecorder::dump_signal_safe(int fd, const char* reason) const {
  fd_puts(fd, "{\"schema\":\"rips-timeseries-v1\",\"reason\":");
  fd_quoted(fd, reason);
  fd_puts(fd, ",\"series\":[{\"label\":");
  fd_quoted(fd, label().c_str());
  fd_puts(fd, ",\"engine\":");
  fd_quoted(fd, engine());
  fd_puts(fd, ",\"nodes\":");
  fd_num(fd, num_nodes());
  fd_puts(fd, ",\"tasks\":");
  fd_num(fd, static_cast<long long>(num_tasks()));
  fd_puts(fd, ",\"makespan_ns\":");
  fd_num(fd, makespan_ns());
  fd_puts(fd, run_complete() ? ",\"complete\":true" : ",\"complete\":false");
  fd_puts(fd, ",\"seen\":");
  fd_num(fd, static_cast<long long>(seen()));
  fd_puts(fd, ",\"dropped\":");
  fd_num(fd, static_cast<long long>(dropped()));
  fd_puts(fd, ",\"columns\":[");
  for (size_t c = 0; c < std::size(kSampleColumns); ++c) {
    if (c != 0) fd_puts(fd, ",");
    fd_quoted(fd, kSampleColumns[c]);
  }
  // Walk the rings in place: no in_order() copy on this path.
  fd_puts(fd, "],\"samples\":[");
  for (size_t i = 0; i < samples_.size(); ++i) {
    const PhaseSample& s = samples_[i];
    fd_puts(fd, i == 0 ? "[" : ",[");
    fd_quoted(fd, phase_kind_name(s.kind));
    for (const i64 v : sample_values(s)) {
      fd_puts(fd, ",");
      fd_num(fd, v);
    }
    fd_puts(fd, "]");
  }
  fd_puts(fd, "],\"events\":[");
  for (size_t i = 0; i < events_.size(); ++i) {
    const TelemetryEvent& e = events_[i];
    fd_puts(fd, i == 0 ? "{\"kind\":" : ",{\"kind\":");
    fd_quoted(fd, telemetry_event_kind_name(e.kind));
    fd_puts(fd, ",\"t\":");
    fd_num(fd, e.t);
    fd_puts(fd, ",\"node\":");
    fd_num(fd, e.node);
    fd_puts(fd, ",\"phase\":");
    fd_num(fd, static_cast<long long>(e.phase));
    fd_puts(fd, ",\"arg\":");
    fd_num(fd, e.arg);
    fd_puts(fd, ",\"detail\":");
    fd_quoted(fd, e.detail);
    fd_puts(fd, "}");
  }
  fd_puts(fd, "]}]}\n");
}

void FlightRecorder::arm_process_hooks() {
  g_armed = this;
  if (!g_hooks_installed) {
    for (const int sig : kSignals) std::signal(sig, black_box_signal_handler);
    g_prev_terminate = std::set_terminate(black_box_terminate_handler);
    g_hooks_installed = true;
  }
}

void FlightRecorder::disarm_process_hooks() {
  if (g_hooks_installed) {
    for (const int sig : kSignals) std::signal(sig, SIG_DFL);
    std::set_terminate(g_prev_terminate);
    g_prev_terminate = nullptr;
    g_hooks_installed = false;
  }
  g_armed = nullptr;
}

}  // namespace rips::obs
