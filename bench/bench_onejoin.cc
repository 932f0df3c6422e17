// Reproduces the Appendix C.1 "One-join query" table: the self-join
// Q(X,Y,Z) = E(X,Y) ∧ E(Y,Z) on the SNAP stand-ins; the {2}-bound is very
// close to the truth while {1} is off by orders of magnitude and the
// traditional estimator underestimates.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "bounds/bound_engine.h"
#include "datagen/graph_gen.h"
#include "estimator/dsb.h"
#include "estimator/traditional.h"
#include "exec/generic_join.h"
#include "query/parser.h"
#include "stats/collector.h"

namespace lpb {
namespace {

void PrintTable() {
  std::printf(
      "== One-join query Q(X,Y,Z) = E(X,Y) ∧ E(Y,Z) (App. C.1) ==\n");
  std::printf("ratios of bound/estimate to the true cardinality\n");
  std::printf("%-18s %14s %10s %10s %10s %10s %10s\n", "dataset", "true",
              "{1}", "{1,inf}", "{2}", "DSB", "trad(DuckDB)");
  for (const GraphSpec& spec : SnapStandInSpecs()) {
    Catalog db;
    Relation g = GeneratePowerLawGraph(spec);
    g.set_name("E");
    db.Add(std::move(g));
    Query q = *ParseQuery("E(X,Y), E(Y,Z)");
    const uint64_t truth = CountJoin(q, db);

    CollectorOptions opt;
    opt.norms = {1.0, 2.0, kInfNorm};
    auto stats = CollectStatistics(q, db, opt);
    CollectorOptions two;
    two.norms = {2.0};
    two.include_cardinalities = false;
    auto stats2 = CollectStatistics(q, db, two);

    const int n = q.num_vars();
    const double agm =
        Ratio(ComputeBound("agm", n, stats).log2_bound, truth);
    const double panda = Ratio(
        ComputeBound("panda", n, stats).log2_bound, truth);
    const double l2 = Ratio(ComputeBound("auto", n, stats2).log2_bound, truth);
    const Relation& e = db.Get("E");
    const double dsb =
        Ratio(SingleJoinDsbLog2(ComputeDegreeSequence(e, {1}, {0}),
                                ComputeDegreeSequence(e, {0}, {1})),
              truth);
    const double duck = Ratio(TraditionalEstimateLog2(q, db), truth);
    std::printf("%-18s %14llu %10s %10s %10s %10s %10s\n", spec.name.c_str(),
                static_cast<unsigned long long>(truth), Sci(agm).c_str(),
                Sci(panda).c_str(), Sci(l2).c_str(), Sci(dsb).c_str(),
                Sci(duck).c_str());
  }
  std::printf("\n");
}

void BM_OneJoinCount(benchmark::State& state) {
  Catalog db;
  Relation g = GeneratePowerLawGraph(SnapStandInSpecs()[0]);
  g.set_name("E");
  db.Add(std::move(g));
  Query q = *ParseQuery("E(X,Y), E(Y,Z)");
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountJoin(q, db));
  }
}
BENCHMARK(BM_OneJoinCount);

void BM_OneJoinDegreeSequence(benchmark::State& state) {
  Relation g = GeneratePowerLawGraph(SnapStandInSpecs()[3]);
  for (auto _ : state) {
    DegreeSequence d = ComputeDegreeSequence(g, {0}, {1});
    benchmark::DoNotOptimize(d.MaxDegree());
  }
}
BENCHMARK(BM_OneJoinDegreeSequence);

}  // namespace
}  // namespace lpb

int main(int argc, char** argv) {
  lpb::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
