// Reproduces Appendix C.3: on the single join of a (0,1/3)-relation with a
// (0,2/3)-relation, the Degree Sequence Bound stays Θ(M) while the best
// ℓp bound is Θ(M^{10/9}) — the gap grows with M as M^{1/9}. Also prints
// the closed-form bound (50) ( = (19) with p=3, q=2 ) next to the engine.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "bounds/formulas.h"
#include "bounds/bound_engine.h"
#include "datagen/alpha_beta.h"
#include "estimator/dsb.h"
#include "exec/generic_join.h"
#include "query/parser.h"
#include "stats/collector.h"

namespace lpb {
namespace {

void PrintTable() {
  std::printf(
      "== DSB vs lp-bound gap instance (App. C.3): R=(0,1/3), S=(0,2/3) "
      "==\n");
  std::printf(
      "log2 values; theory: DSB = log2(2M), lp-bound = (10/9) log2 M\n");
  std::printf("%-10s %10s %10s %10s %12s %12s %12s\n", "M", "log2M",
              "log2|Q|", "DSB", "eq(50)", "engine", "(10/9)log2M");
  for (int e = 9; e <= 18; e += 3) {
    const uint64_t m = 1ull << e;
    Catalog db;
    db.Add(AlphaBetaRelation("R", m, 0.0, 1.0 / 3));
    db.Add(AlphaBetaRelation("S", m, 0.0, 2.0 / 3));
    Query q = *ParseQuery("R(X,Y), S(Y,Z)");
    const uint64_t truth = CountJoin(q, db);

    DegreeSequence a = ComputeDegreeSequence(db.Get("R"), {1}, {0});
    DegreeSequence b = ComputeDegreeSequence(db.Get("S"), {0}, {1});
    const double dsb = SingleJoinDsbLog2(a, b);
    // Eq (50): ||deg_R(X|Y)||_3 · |S|^{1/3} · ||deg_S(Z|Y)||_2^{2/3}.
    const double eq50 = JoinEq19Log2(
        a.Log2NormP(3.0), b.Log2NormP(2.0),
        std::log2(static_cast<double>(db.Get("S").NumRows())), 3.0, 2.0);

    CollectorOptions opt;
    opt.norms = {1.0, 2.0, 3.0, 4.0, 5.0, kInfNorm};
    auto stats = CollectStatistics(q, db, opt);
    auto bound = ComputeBound("auto", q.num_vars(), stats);

    std::printf("%-10llu %10d %10.2f %10.2f %12.2f %12.2f %12.2f\n",
                static_cast<unsigned long long>(m), e,
                truth == 0 ? 0.0 : std::log2(static_cast<double>(truth)),
                dsb, eq50, bound.log2_bound, 10.0 * e / 9.0);
  }
  std::printf("\n");
}

void BM_DsbComputation(benchmark::State& state) {
  const uint64_t m = 1ull << 15;
  Relation r = AlphaBetaRelation("R", m, 0.0, 1.0 / 3);
  Relation s = AlphaBetaRelation("S", m, 0.0, 2.0 / 3);
  DegreeSequence a = ComputeDegreeSequence(r, {1}, {0});
  DegreeSequence b = ComputeDegreeSequence(s, {0}, {1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(SingleJoinDsb(a, b));
  }
}
BENCHMARK(BM_DsbComputation);

void BM_GapInstanceBound(benchmark::State& state) {
  const uint64_t m = 1ull << 15;
  Catalog db;
  db.Add(AlphaBetaRelation("R", m, 0.0, 1.0 / 3));
  db.Add(AlphaBetaRelation("S", m, 0.0, 2.0 / 3));
  Query q = *ParseQuery("R(X,Y), S(Y,Z)");
  CollectorOptions opt;
  opt.norms = {1.0, 2.0, 3.0, 4.0, 5.0, kInfNorm};
  auto stats = CollectStatistics(q, db, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeBound("auto", q.num_vars(), stats).log2_bound);
  }
}
BENCHMARK(BM_GapInstanceBound);

}  // namespace
}  // namespace lpb

int main(int argc, char** argv) {
  lpb::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
