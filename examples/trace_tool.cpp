// trace_tool — post-mortem analysis of one run's exported trace or
// flight-recorder dump (docs/OBSERVABILITY.md, "Analysis"). Comparing two
// runs is bench/bench_diff's job.
//
//   ./rips_cli --app=queens --trace-out=run.trace.json
//   ./trace_tool analyze run.trace.json            phase profile (text)
//   ./trace_tool analyze run.trace.json --json=profile.json
//   ./trace_tool critical-path run.trace.json      makespan attribution
//   ./trace_tool critical-path run.trace.json --json=cp.json
//   ./trace_tool top run.trace.json --limit=5      where the time went
//   ./trace_tool blackbox rips-blackbox.json       flight-recorder dump or
//                                                  any time-series document
//
// `trace_tool <command> --help` prints that command's usage and exits 0.
// Exit codes: 0 = ok, 2 = usage/parse error (including empty or truncated
// inputs).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/analysis/analysis.hpp"
#include "obs/analysis/blackbox.hpp"
#include "util/args.hpp"

namespace {

using namespace rips;
using namespace rips::obs::analysis;

bool read_file(const std::string& path, std::string& out, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  out.flush();
  return static_cast<bool>(out);
}

/// Detailed per-command usage, printed by `trace_tool <command> --help`.
/// nullptr for commands this tool does not know.
const char* command_help(const std::string& cmd) {
  if (cmd == "analyze") {
    return "usage: trace_tool analyze <trace.json> [--json=FILE]\n"
           "Table-II style phase-profile report over an exported Perfetto\n"
           "trace: per system phase (schedule / migrate / recovery time,\n"
           "tasks moved) and per node (busy, idle, messages). --json also\n"
           "writes the rips-phase-profile-v1 document to FILE.\n";
  }
  if (cmd == "critical-path") {
    return "usage: trace_tool critical-path <trace.json> [--json=FILE]\n"
           "Makespan attribution: the causal chain of intervals that\n"
           "determines the makespan, every nanosecond attributed to\n"
           "compute / idle / schedule / collective / migration / recovery.\n"
           "--json also writes the rips-critical-path-v1 document to FILE.\n";
  }
  if (cmd == "top") {
    return "usage: trace_tool top <trace.json> [--limit=10]\n"
           "Where-does-the-time-go aggregation of trace spans by\n"
           "(category, name), sorted by total time descending.\n";
  }
  if (cmd == "blackbox") {
    return "usage: trace_tool blackbox <timeseries.json>\n"
           "Post-mortem over a rips-timeseries-v1 document: a flight-\n"
           "recorder dump (its reason, then the ring) or a --timeseries-out\n"
           "export. Every series' events are attributed to the phase\n"
           "windows that contain them, followed by the last phases kept.\n";
  }
  return nullptr;
}

int usage(bool ok) {
  std::fprintf(
      ok ? stdout : stderr,
      "usage: trace_tool <command> ... (append --help for details)\n"
      "  analyze <trace.json> [--json=FILE]        phase-profile report\n"
      "  critical-path <trace.json> [--json=FILE]  makespan attribution\n"
      "  top <trace.json> [--limit=10]             span time aggregation\n"
      "  blackbox <timeseries.json>                flight-recorder\n"
      "       post-mortem: events attributed to their phase windows\n");
  return ok ? 0 : 2;
}

int load_trace(const std::string& path, AnalysisTrace& trace) {
  std::string text;
  std::string error;
  if (!read_file(path, text, error)) {
    std::fprintf(stderr, "trace_tool: %s\n", error.c_str());
    return 2;
  }
  if (text.empty()) {
    std::fprintf(stderr,
                 "trace_tool: %s: file is empty — the run may have died "
                 "before the trace was written\n",
                 path.c_str());
    return 2;
  }
  auto parsed = AnalysisTrace::from_trace_json(text, &error);
  if (!parsed.has_value()) {
    // A syntactically broken document is almost always a capture cut off
    // mid-write (crashed run, full disk); say so instead of leaving the
    // user with a bare parse offset.
    std::fprintf(stderr,
                 "trace_tool: %s: %s (empty or truncated capture?)\n",
                 path.c_str(), error.c_str());
    return 2;
  }
  trace = std::move(*parsed);
  if (trace.events.empty()) {
    std::fprintf(stderr,
                 "trace_tool: %s: trace contains no events — nothing to "
                 "analyze (was the session attached to the run?)\n",
                 path.c_str());
    return 2;
  }
  if (trace.dropped > 0) {
    std::fprintf(stderr,
                 "trace_tool: warning: %llu events were dropped by the ring "
                 "buffer; reports are partial\n",
                 static_cast<unsigned long long>(trace.dropped));
  }
  return 0;
}

int run_tool(const Args& args) {
  if (args.positional().empty()) return usage(args.has("help"));
  const std::string& cmd = args.positional()[0];
  if (args.has("help")) {
    // Per-subcommand usage, stdout, exit 0 — `<command> --help` is a
    // documentation request, never an error.
    const char* help = command_help(cmd);
    if (help == nullptr) return usage(true);
    std::fputs(help, stdout);
    return 0;
  }

  if (cmd == "analyze" || cmd == "critical-path") {
    args.check_known({"help", "json"});
    if (args.positional().size() != 2) return usage(false);
    AnalysisTrace trace;
    if (const int rc = load_trace(args.positional()[1], trace); rc != 0) {
      return rc;
    }
    std::string json_doc;
    std::string text;
    if (cmd == "analyze") {
      const PhaseProfile profile = phase_profile(trace);
      json_doc = profile.to_json();
      text = profile.to_text();
    } else {
      const CriticalPath cp = critical_path(trace);
      json_doc = cp.to_json();
      text = cp.to_text();
    }
    std::fputs(text.c_str(), stdout);
    if (args.has("json")) {
      const std::string path = args.get("json", "");
      if (!write_file(path, json_doc)) {
        std::fprintf(stderr, "trace_tool: cannot write %s\n", path.c_str());
        return 2;
      }
      std::printf("wrote %s\n", path.c_str());
    }
    return 0;
  }

  if (cmd == "top") {
    args.check_known({"help", "limit"});
    if (args.positional().size() != 2) return usage(false);
    AnalysisTrace trace;
    if (const int rc = load_trace(args.positional()[1], trace); rc != 0) {
      return rc;
    }
    const auto limit = static_cast<size_t>(args.get_int("limit", 10));
    std::printf(" %-8s %-18s %8s %12s %12s\n", "cat", "name", "count",
                "total_ms", "max_ms");
    for (const SpanAgg& a : top_spans(trace, limit)) {
      std::printf(" %-8s %-18s %8llu %12.3f %12.3f\n", a.category.c_str(),
                  a.name.c_str(), static_cast<unsigned long long>(a.count),
                  static_cast<double>(a.total_ns) / 1e6,
                  static_cast<double>(a.max_ns) / 1e6);
    }
    return 0;
  }

  if (cmd == "blackbox") {
    args.check_known({"help"});
    if (args.positional().size() != 2) return usage(false);
    std::string error;
    const auto doc = load_timeseries_file(args.positional()[1], &error);
    if (!doc.has_value()) {
      std::fprintf(stderr, "trace_tool: %s: %s\n",
                   args.positional()[1].c_str(), error.c_str());
      return 2;
    }
    std::fputs(blackbox_report(*doc).c_str(), stdout);
    return 0;
  }

  std::fprintf(stderr, "trace_tool: unknown command '%s'\n", cmd.c_str());
  return usage(false);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_tool(Args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "trace_tool: %s\n", e.what());
    return 2;
  }
}
