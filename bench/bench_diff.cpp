// bench_diff — the CI regression gate over two documents of one schema.
//
//   ./bench_diff BENCH_core.json BENCH_fresh.json
//   ./bench_diff old.json new.json --makespan-tol=0.05 --overhead-factor=1.5
//   ./bench_diff base.ts.json run.ts.json      steady-state band gate
//
// Two rips-bench-v1 documents are gated run by run on their Table-I
// columns; two rips-timeseries-v1 documents series by series on their
// steady-state bands (the flags tune the bench gates only). A
// rips-bench-v1 document is validated as it loads, so `bench_diff X X` is
// also the schema check. Exit codes: 0 = no regressions, 1 = regression
// (or baseline run/series missing from the current document), 2 = usage
// error, a document that breaks its schema, or documents of different
// schemas. The simulator is bit-deterministic, so an unchanged
// tree diffs clean against the committed baseline on any machine.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "obs/analysis/bench_diff.hpp"
#include "util/args.hpp"

namespace {

using namespace rips::obs::analysis;

template <class Doc>
int gate(std::optional<Doc> (*load)(const std::string&, std::string*),
         const std::string& baseline_path, const std::string& current_path,
         const DiffOptions& opts) {
  std::string error;
  const std::optional<Doc> baseline = load(baseline_path, &error);
  if (!baseline.has_value()) {
    std::fprintf(stderr, "bench_diff: baseline: %s\n", error.c_str());
    return 2;
  }
  const std::optional<Doc> current = load(current_path, &error);
  if (!current.has_value()) {
    std::fprintf(stderr, "bench_diff: current: %s\n", error.c_str());
    return 2;
  }
  const DiffResult result = diff(*baseline, *current, opts);
  std::fputs(report(result).c_str(), stdout);
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rips;
  try {
    const Args args(argc, argv);
    if (args.has("help") || args.positional().size() != 2) {
      std::fprintf(stderr,
                   "usage: bench_diff <baseline.json> <current.json>\n"
                   "  [--makespan-tol=0.10]    relative makespan tolerance\n"
                   "  [--overhead-factor=2.0]  overhead regression factor\n"
                   "  [--overhead-floor-s=1e-4] absolute overhead floor\n"
                   "  [--efficiency-tol=0.05]  absolute efficiency drop\n"
                   "  [--percentile-factor=4.0] histogram p95/p99 growth\n"
                   "  [--fairness-tol=0.10]    absolute per-job fairness drop\n"
                   "Two rips-timeseries-v1 documents are gated on their\n"
                   "steady-state bands instead: >1.5x mean or >2x p95 fails,\n"
                   "baseline values below 4 are ignored.\n");
      return args.has("help") ? 0 : 2;
    }
    args.check_known({"help", "makespan-tol", "overhead-factor",
                      "overhead-floor-s", "efficiency-tol",
                      "percentile-factor", "fairness-tol"});
    DiffOptions opts;
    opts.makespan_rel_tol = args.get_double("makespan-tol", 0.10);
    opts.overhead_factor = args.get_double("overhead-factor", 2.0);
    opts.overhead_abs_floor_s = args.get_double("overhead-floor-s", 1e-4);
    opts.efficiency_abs_tol = args.get_double("efficiency-tol", 0.05);
    opts.percentile_factor = args.get_double("percentile-factor", 4.0);
    opts.fairness_abs_tol = args.get_double("fairness-tol", 0.10);

    const std::string& baseline = args.positional()[0];
    const std::string& current = args.positional()[1];
    const std::string baseline_schema = file_schema(baseline);
    const std::string current_schema = file_schema(current);
    if (!baseline_schema.empty() && !current_schema.empty() &&
        baseline_schema != current_schema) {
      std::fprintf(stderr,
                   "bench_diff: baseline is %s but current is %s; both "
                   "documents must have the same schema\n",
                   baseline_schema.c_str(), current_schema.c_str());
      return 2;
    }
    if (baseline_schema == "rips-timeseries-v1") {
      return gate(&load_timeseries_file, baseline, current, opts);
    }
    return gate(&load_bench_file, baseline, current, opts);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }
}
