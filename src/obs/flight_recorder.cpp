#include "obs/flight_recorder.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <utility>

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

/// The recorder's one writer: JSON through write(2) only, so the signal
/// path can use it. `ok` turns false at the first failed write.
struct FdOut {
  int fd;
  bool ok = true;

  void write(const char* s, size_t n) {
    while (n > 0) {
      const ssize_t w = ::write(fd, s, n);
      if (w <= 0) {
        ok = false;
        return;
      }
      s += w;
      n -= static_cast<size_t>(w);
    }
  }

  void puts(const char* s) { write(s, std::strlen(s)); }

  void num(long long v) {
    char buf[24];
    const int n = std::snprintf(buf, sizeof buf, "%lld", v);
    if (n > 0) write(buf, static_cast<size_t>(n));
  }

  /// `"s"` escaped the way JSON requires (quotes, backslashes, control
  /// characters), written in runs of plain characters.
  void quoted(const char* s) {
    write("\"", 1);
    const char* run = s;
    for (; *s != '\0'; ++s) {
      const auto c = static_cast<unsigned char>(*s);
      if (c != '"' && c != '\\' && c >= 0x20) continue;
      write(run, static_cast<size_t>(s - run));
      char esc[8];
      const int n = c < 0x20 ? std::snprintf(esc, sizeof esc, "\\u%04x", c)
                             : std::snprintf(esc, sizeof esc, "\\%c", c);
      write(esc, static_cast<size_t>(n));
      run = s + 1;
    }
    write(run, static_cast<size_t>(s - run));
    write("\"", 1);
  }
};

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
  const int fd = ::open(target.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool written = dump_signal_safe(fd, reason);
  if (::close(fd) != 0 || !written) return false;
  ++dumps_written_;
  return true;
}

bool FlightRecorder::dump_signal_safe(int fd, const char* reason) const {
  FdOut out{fd};
  out.puts("{\"schema\":\"rips-timeseries-v1\",\"reason\":");
  out.quoted(reason);
  out.puts(",\"series\":[{\"label\":");
  out.quoted(label().c_str());
  out.puts(",\"engine\":");
  out.quoted(engine());
  out.puts(",\"nodes\":");
  out.num(num_nodes());
  out.puts(",\"tasks\":");
  out.num(static_cast<long long>(num_tasks()));
  out.puts(",\"makespan_ns\":");
  out.num(makespan_ns());
  out.puts(run_complete() ? ",\"complete\":true" : ",\"complete\":false");
  out.puts(",\"seen\":");
  out.num(static_cast<long long>(seen()));
  out.puts(",\"dropped\":");
  out.num(static_cast<long long>(dropped()));
  out.puts(",\"columns\":[");
  for (size_t c = 0; c < std::size(kSampleColumns); ++c) {
    if (c != 0) out.puts(",");
    out.quoted(kSampleColumns[c]);
  }
  // Walk the rings in place: no in_order() copy on this path.
  out.puts("],\"samples\":[");
  for (size_t i = 0; i < samples_.size(); ++i) {
    const PhaseSample& s = samples_[i];
    out.puts(i == 0 ? "[" : ",[");
    out.quoted(phase_kind_name(s.kind));
    for (const i64 v : sample_values(s)) {
      out.puts(",");
      out.num(v);
    }
    out.puts("]");
  }
  out.puts("],\"events\":[");
  for (size_t i = 0; i < events_.size(); ++i) {
    const TelemetryEvent& e = events_[i];
    out.puts(i == 0 ? "{\"kind\":" : ",{\"kind\":");
    out.quoted(telemetry_event_kind_name(e.kind));
    out.puts(",\"t\":");
    out.num(e.t);
    out.puts(",\"node\":");
    out.num(e.node);
    out.puts(",\"phase\":");
    out.num(static_cast<long long>(e.phase));
    out.puts(",\"arg\":");
    out.num(e.arg);
    out.puts(",\"detail\":");
    out.quoted(e.detail);
    out.puts("}");
  }
  out.puts("]}]}\n");
  return out.ok;
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
