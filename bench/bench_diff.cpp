// bench_diff — the CI regression gate: an exact diff of two documents of
// one schema.
//
//   ./bench_diff BENCH_core.json BENCH_fresh.json
//   ./bench_diff base.ts.json run.ts.json
//
// Both documents are validated with their schema's loader (rips-bench-v1
// or rips-timeseries-v1), so `bench_diff X X` is also the schema check.
// Then they are compared value by value over the whole file, and every
// differing value is printed with its run key or series label. Exit
// codes: 0 = every value equal, 1 = a value differs or a run/series is
// only on one side, 2 = usage error, a document that breaks its schema,
// or documents of different schemas. The simulator is bit-deterministic,
// so an unchanged tree diffs clean against the committed baseline on any
// machine.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "obs/analysis/bench_diff.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace rips;
  using namespace rips::obs::analysis;
  try {
    const Args args(argc, argv);
    if (args.has("help") || args.positional().size() != 2) {
      std::fprintf(stderr,
                   "usage: bench_diff <baseline.json> <current.json>\n"
                   "Validates two rips-bench-v1 or two rips-timeseries-v1\n"
                   "documents and compares them value by value; any\n"
                   "difference fails.\n");
      return args.has("help") ? 0 : 2;
    }
    args.check_known({"help"});

    std::optional<Document> docs[2];
    const char* const sides[2] = {"baseline", "current"};
    for (size_t i = 0; i < 2; ++i) {
      std::string error;
      docs[i] = load_document_file(args.positional()[i], &error);
      if (!docs[i].has_value()) {
        std::fprintf(stderr, "bench_diff: %s: %s\n", sides[i], error.c_str());
        return 2;
      }
    }
    if (docs[0]->schema != docs[1]->schema) {
      std::fprintf(stderr,
                   "bench_diff: baseline is %s but current is %s; both "
                   "documents must have the same schema\n",
                   docs[0]->schema.c_str(), docs[1]->schema.c_str());
      return 2;
    }
    const std::vector<Difference> differences = diff(*docs[0], *docs[1]);
    std::fputs(report(differences).c_str(), stdout);
    return differences.empty() ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }
}
