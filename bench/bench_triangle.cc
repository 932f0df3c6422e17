// Reproduces the Appendix C.1 "Triangle query" table: ratios of the {1}
// (AGM), {1,∞} (PANDA), {2} and full ℓp bounds and of the traditional
// estimate to the true triangle count, on the seven SNAP stand-in graphs.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "bounds/bound_engine.h"
#include "datagen/graph_gen.h"
#include "estimator/traditional.h"
#include "exec/generic_join.h"
#include "query/parser.h"
#include "stats/collector.h"

namespace lpb {
namespace {

struct Row {
  std::string dataset;
  uint64_t truth;
  double agm, panda, l2, full;
  double duck;
};

Row RunDataset(const GraphSpec& spec) {
  Catalog db;
  Relation g = GeneratePowerLawGraph(spec);
  g.set_name("E");
  db.Add(std::move(g));
  Query q = *ParseQuery("E(X,Y), E(Y,Z), E(Z,X)");

  Row row;
  row.dataset = spec.name;
  row.truth = CountJoin(q, db);

  CollectorOptions all;
  all.norms = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0,
               11.0, 12.0, 13.0, 14.0, 15.0, kInfNorm};
  auto stats = CollectStatistics(q, db, all);

  CollectorOptions two;
  two.norms = {2.0};
  two.include_cardinalities = false;
  auto stats2 = CollectStatistics(q, db, two);

  const int n = q.num_vars();
  row.agm =
      Ratio(ComputeBound("agm", n, stats).log2_bound, row.truth);
  row.panda = Ratio(ComputeBound("panda", n, stats).log2_bound,
                    row.truth);
  row.l2 = Ratio(ComputeBound("auto", n, stats2).log2_bound, row.truth);
  row.full = Ratio(ComputeBound("auto", n, stats).log2_bound, row.truth);
  row.duck = Ratio(TraditionalEstimateLog2(q, db), row.truth);
  return row;
}

void PrintTable() {
  std::printf(
      "== Triangle query Q(X,Y,Z) = E(X,Y) ∧ E(Y,Z) ∧ E(Z,X) "
      "(App. C.1, SNAP stand-ins) ==\n");
  std::printf("ratios of bound/estimate to the true cardinality; 1 = "
              "perfect, lower is better\n");
  std::printf("%-18s %12s %10s %10s %10s %12s %10s\n", "dataset", "true",
              "{1}", "{1,inf}", "{2}", "{1..15,inf}", "trad(DuckDB)");
  for (const GraphSpec& spec : SnapStandInSpecs()) {
    Row r = RunDataset(spec);
    std::printf("%-18s %12llu %10s %10s %10s %12s %10s\n", r.dataset.c_str(),
                static_cast<unsigned long long>(r.truth), Sci(r.agm).c_str(),
                Sci(r.panda).c_str(), Sci(r.l2).c_str(), Sci(r.full).c_str(),
                Sci(r.duck).c_str());
  }
  std::printf("\n");
}

void BM_TriangleBoundComputation(benchmark::State& state) {
  GraphSpec spec = SnapStandInSpecs()[0];  // ca_GrQc
  Catalog db;
  Relation g = GeneratePowerLawGraph(spec);
  g.set_name("E");
  db.Add(std::move(g));
  Query q = *ParseQuery("E(X,Y), E(Y,Z), E(Z,X)");
  CollectorOptions opt;
  opt.norms = {1.0, 2.0, 3.0, kInfNorm};
  auto stats = CollectStatistics(q, db, opt);
  for (auto _ : state) {
    auto bound = ComputeBound("auto", q.num_vars(), stats);
    benchmark::DoNotOptimize(bound.log2_bound);
  }
}
BENCHMARK(BM_TriangleBoundComputation);

void BM_TriangleStatisticsCollection(benchmark::State& state) {
  GraphSpec spec = SnapStandInSpecs()[0];
  Catalog db;
  Relation g = GeneratePowerLawGraph(spec);
  g.set_name("E");
  db.Add(std::move(g));
  Query q = *ParseQuery("E(X,Y), E(Y,Z), E(Z,X)");
  CollectorOptions opt;
  opt.norms = {1.0, 2.0, 3.0, kInfNorm};
  for (auto _ : state) {
    auto stats = CollectStatistics(q, db, opt);
    benchmark::DoNotOptimize(stats.size());
  }
}
BENCHMARK(BM_TriangleStatisticsCollection);

void BM_TriangleTrueCount(benchmark::State& state) {
  GraphSpec spec = SnapStandInSpecs()[0];
  Catalog db;
  Relation g = GeneratePowerLawGraph(spec);
  g.set_name("E");
  db.Add(std::move(g));
  Query q = *ParseQuery("E(X,Y), E(Y,Z), E(Z,X)");
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountJoin(q, db));
  }
}
BENCHMARK(BM_TriangleTrueCount);

}  // namespace
}  // namespace lpb

int main(int argc, char** argv) {
  lpb::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
