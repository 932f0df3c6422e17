// Domain example: a command-line cardinality advisor for your own data.
//
//   ./csv_estimator <query> <name=path.csv> [<name=path.csv> ...]
//   ./csv_estimator            # runs a built-in demo on generated CSVs
//
// Loads relations from CSV (SNAP-style tab files work too), evaluates every
// estimator in the library on the query, and prints a sensitivity report
// telling the user which statistics to maintain to tighten the bound.
#include <cstdio>
#include <filesystem>
#include <string>

#include "bounds/bound_engine.h"
#include "bounds/sensitivity.h"
#include "datagen/graph_gen.h"
#include "estimator/comparison.h"
#include "query/parser.h"
#include "relation/csv.h"
#include "stats/collector.h"

using namespace lpb;

namespace {

int RunDemo() {
  // Generate a small graph, save it as CSV, and reload it — the same path
  // a user would take with their own files.
  GraphSpec spec;
  spec.name = "edges";
  spec.num_nodes = 3000;
  spec.num_edges = 12000;
  spec.zipf_theta = 0.8;
  Relation edges = GeneratePowerLawGraph(spec);
  const std::string path =
      (std::filesystem::temp_directory_path() / "lpb_demo_edges.csv").string();
  SaveRelationCsv(edges, path);
  std::printf("demo: wrote %zu edges to %s\n", edges.NumRows(), path.c_str());

  std::string error;
  auto loaded = LoadRelationCsv("edges", path, {}, &error);
  std::remove(path.c_str());
  if (!loaded) {
    std::fprintf(stderr, "reload failed: %s\n", error.c_str());
    return 1;
  }
  Catalog db;
  db.Add(std::move(*loaded));

  Query q = *ParseQuery("edges(X,Y), edges(Y,Z)");
  std::printf("query: %s\n\n", q.ToString().c_str());
  std::printf("%s\n", FormatComparison(CompareEstimators(q, db)).c_str());

  CollectorOptions copt;
  copt.norms = {1.0, 2.0, 3.0, kInfNorm};
  auto stats = CollectStatistics(q, db, copt);
  auto bound = ComputeBound("auto", q.num_vars(), stats);
  std::printf("sensitivity (which statistics the bound leans on):\n%s",
              FormatSensitivity(AnalyzeSensitivity(bound, stats), stats)
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return RunDemo();

  std::string error;
  auto query = ParseQuery(argv[1], &error);
  if (!query) {
    std::fprintf(stderr, "bad query: %s\n", error.c_str());
    return 1;
  }
  Catalog db;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "expected name=path.csv, got %s\n", arg.c_str());
      return 1;
    }
    auto rel =
        LoadRelationCsv(arg.substr(0, eq), arg.substr(eq + 1), {}, &error);
    if (!rel) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    db.Add(std::move(*rel));
  }
  std::printf("%s\n",
              FormatComparison(CompareEstimators(*query, db)).c_str());
  return 0;
}
