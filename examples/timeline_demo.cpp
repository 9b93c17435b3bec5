// Timeline visualization: watch RIPS alternate user and system phases.
//
// Renders ASCII utilization charts (one row per node, darker = busier) for
// RIPS and for randomized allocation on the same N-Queens run, drawn from
// each run's trace (obs::utilization_chart). The RIPS chart shows the
// signature of incremental scheduling: solid busy bands separated by short
// synchronized system phases, with the early phases spreading the work
// outward from node 0.
//
// With --trace-out the same RIPS run is also exported as a Perfetto trace
// (docs/OBSERVABILITY.md) — the ASCII chart and ui.perfetto.dev show the
// same phases, one at terminal resolution and one zoomable to the task.
//
//   ./timeline_demo [--queens=12] [--nodes=8] [--width=100]
//                   [--trace-out=timeline.trace.json]
#include <cstdio>
#include <limits>
#include <string>

#include "apps/nqueens.hpp"
#include "balance/engine.hpp"
#include "balance/random_alloc.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "topo/topology.hpp"
#include "util/args.hpp"
#include "util/check.hpp"

int main(int argc, char** argv) {
  using namespace rips;
  const Args args(argc, argv);
  const i32 queens = static_cast<i32>(args.get_int("queens", 12));
  const i32 nodes = static_cast<i32>(args.get_int("nodes", 8));
  const i32 width = static_cast<i32>(args.get_int("width", 100));

  const apps::TaskTrace trace = apps::build_nqueens_trace(queens, 4);
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  const auto shape = topo::paper_mesh_shape(nodes);
  topo::Mesh mesh(shape.rows, shape.cols);

  std::printf("%d-queens on %s (%zu tasks)\n\n", queens, mesh.name().c_str(),
              trace.size());
  // The charts need every event of a run: sessions that never overwrite.
  constexpr size_t kWholeRun = std::numeric_limits<size_t>::max();

  {
    sched::Mwa mwa(mesh);
    core::RipsEngine engine(mwa, cost, core::RipsConfig{});
    obs::TraceSession trace_session(nodes, kWholeRun);
    engine.set_obs(obs::Obs{&trace_session, nullptr});
    const auto m = engine.run(trace);
    std::printf("RIPS (ANY-Lazy + MWA): T=%.3fs, efficiency %.0f%%, %llu "
                "system phases\n",
                m.exec_s(), 100.0 * m.efficiency(),
                static_cast<unsigned long long>(m.system_phases));
    std::fputs(obs::utilization_chart(trace_session, width).c_str(), stdout);
    if (args.has("trace-out")) {
      const std::string path = args.get("trace-out", "timeline.trace.json");
      RIPS_CHECK_MSG(trace_session.write_json(path),
                     "failed to write the trace JSON");
      std::printf("wrote %s — open in ui.perfetto.dev for the zoomable "
                  "version of the chart above\n", path.c_str());
    }
  }
  std::printf("\n");
  {
    balance::RandomAlloc random(7);
    balance::DynamicEngine engine(mesh, cost, random);
    obs::TraceSession trace_session(nodes, kWholeRun);
    engine.set_obs(obs::Obs{&trace_session, nullptr});
    const auto m = engine.run(trace);
    std::printf("randomized allocation: T=%.3fs, efficiency %.0f%%\n",
                m.exec_s(), 100.0 * m.efficiency());
    std::fputs(obs::utilization_chart(trace_session, width).c_str(), stdout);
  }
  return 0;
}
