// rips_served — the RIPS-as-a-service daemon (docs/SERVING.md).
//
// Listens on a Unix-domain socket for line-delimited JSON requests
// (serve/protocol.hpp), runs every admitted job on ONE shared simulated
// machine (RipsEngine::run_online — jobs submitted mid-run spawn tasks
// dynamically), and on shutdown writes the whole serving session as a
// rips-bench-v1 document so bench_diff reads a serving run exactly like a
// batch run.
//
// Example session:
//   ./rips_served --socket=/tmp/rips.sock --nodes=64
//       --bench-out=BENCH_serve.json &   (one line, backgrounded)
//   ./rips_jobctl --socket=/tmp/rips.sock ping
//   ./rips_jobctl --socket=/tmp/rips.sock submit --tenant=alice --roots=64
//   ./rips_jobctl --socket=/tmp/rips.sock drain
//   ./rips_jobctl --socket=/tmp/rips.sock shutdown
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "serve/job_server.hpp"
#include "serve/socket_server.hpp"
#include "util/args.hpp"
#include "util/check.hpp"

namespace {

using namespace rips;

int run_served(const Args& args) {
  if (args.has("help")) {
    std::printf(
        "usage: rips_served --socket=PATH [--nodes=64]\n"
        "  [--policy={any,all}-{lazy,eager}] [--max-pending=16]\n"
        "  [--tenant-cap=4] [--retry-base-ms=50] [--max-job-tasks=200000]\n"
        "  [--ns-per-work=500] [--monitors=1] [--bench-out=PATH]\n"
        "  [--blackbox=PATH]\n"
        "serves the line-delimited JSON job protocol (docs/SERVING.md) on a\n"
        "Unix-domain socket until a shutdown request arrives; --bench-out\n"
        "then receives the session as a rips-bench-v1 document.\n");
    return 0;
  }
  args.check_known({"help", "socket", "nodes", "policy", "max-pending",
                    "tenant-cap", "retry-base-ms", "max-job-tasks",
                    "ns-per-work", "monitors", "bench-out", "blackbox"});

  const std::string socket_path = args.get("socket", "");
  if (socket_path.empty()) {
    throw std::invalid_argument("--socket=PATH is required");
  }

  serve::ServeOptions options;
  options.nodes = static_cast<i32>(args.get_int("nodes", 64));
  const std::string policy = args.get("policy", "any-lazy");
  const std::optional<core::RipsConfig> config = core::parse_policy(policy);
  if (!config.has_value()) {
    throw std::invalid_argument(
        "--policy must be {any,all}-{lazy,eager}, not '" + policy + "'");
  }
  options.config = *config;
  options.admission.max_pending =
      static_cast<i32>(args.get_int("max-pending", 16));
  options.admission.tenant_cap =
      static_cast<i32>(args.get_int("tenant-cap", 4));
  options.admission.retry_base_ms = args.get_int("retry-base-ms", 50);
  options.max_job_tasks =
      static_cast<u64>(args.get_int("max-job-tasks", 200'000));
  options.ns_per_work = args.get_double("ns-per-work", 500.0);
  options.monitors = args.get_bool("monitors", true);
  options.blackbox_path = args.get("blackbox", "");
  const std::string bench_out = args.get("bench-out", "");

  // A peer that closed its socket costs only its connection (sends use
  // MSG_NOSIGNAL); ignoring SIGPIPE also keeps a closed stderr, such as
  // `rips_served ... 2>&1 | head -1`, from killing the daemon before it
  // writes --bench-out.
  std::signal(SIGPIPE, SIG_IGN);
  serve::JobServer server(options);
  serve::SocketServer socket(server, socket_path);
  server.start();
  // The "listening" line is the readiness signal CI and scripts wait for.
  std::fprintf(stderr, "rips_served: listening on %s (nodes=%d, %s)\n",
               socket_path.c_str(), options.nodes, policy.c_str());
  const u64 connections = socket.serve_forever();

  server.shutdown();  // no-op when the shutdown request already drained
  std::fprintf(stderr,
               "rips_served: shut down after %llu connections, "
               "%llu jobs done, %llu tasks executed, monitors %s\n",
               static_cast<unsigned long long>(connections),
               static_cast<unsigned long long>(server.jobs_done()),
               static_cast<unsigned long long>(server.executed_total()),
               server.monitors_ok() ? "clean" : "VIOLATED");
  if (!bench_out.empty()) {
    std::ofstream out(bench_out);
    RIPS_CHECK_MSG(out.good(), "cannot open --bench-out file");
    out << server.bench_json() << "\n";
    std::fprintf(stderr, "rips_served: wrote %s\n", bench_out.c_str());
  }
  return server.monitors_ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Unknown flags and bad flag values exit 2 with one line naming the flag.
  try {
    return run_served(Args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "rips_served: %s\n", e.what());
    return 2;
  }
}
