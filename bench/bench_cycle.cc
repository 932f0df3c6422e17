// Reproduces Example 2.3 / Appendix C.5: on the (1/(p+1), 1/(p+1))-relation
// instance for the (p+1)-cycle query, the ℓp-norm bound (21) with q = p is
// the best bound — AGM and PANDA are asymptotically worse, and every
// smaller q is dominated.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "bounds/formulas.h"
#include "bounds/bound_engine.h"
#include "datagen/alpha_beta.h"
#include "exec/generic_join.h"
#include "query/query.h"
#include "stats/collector.h"

namespace lpb {
namespace {

Query CycleQuery(int k) {
  Query q("cycle" + std::to_string(k));
  for (int i = 0; i < k; ++i) {
    q.AddAtom("R", {"X" + std::to_string(i), "X" + std::to_string((i + 1) % k)});
  }
  return q;
}

void PrintTable() {
  std::printf(
      "== Cycle query of length p+1 on the (1/(p+1),1/(p+1))-relation "
      "(Example 2.3 / App. C.5) ==\n");
  std::printf(
      "log2 of each bound; (21) with q = p is the best, matching the "
      "paper's claim that every ℓp shows up\n");
  std::printf("%-3s %-9s %10s %8s %8s", "p", "|R|", "log2|Q|", "AGM",
              "PANDA");
  for (int qn = 1; qn <= 5; ++qn) std::printf("  eq21(q=%d)", qn);
  std::printf(" %10s\n", "engine");

  for (int p = 2; p <= 5; ++p) {
    const int k = p + 1;
    const uint64_t base = (p <= 3) ? 16 : 8;
    uint64_t m = 1;
    for (int i = 0; i < k; ++i) m *= base;  // M = base^{p+1}
    Catalog db;
    db.Add(AlphaBetaRelation("R", m, 1.0 / k, 1.0 / k));
    Query q = CycleQuery(k);
    const uint64_t truth = CountJoin(q, db);

    const Relation& r = db.Get("R");
    DegreeSequence deg = ComputeDegreeSequence(r, {0}, {1});
    const double log_r = std::log2(static_cast<double>(r.NumRows()));
    const double log_inf = deg.Log2NormP(kInfNorm);

    std::printf("%-3d %-9llu %10.2f %8.2f %8.2f", p,
                static_cast<unsigned long long>(r.NumRows()),
                truth == 0 ? 0.0 : std::log2(static_cast<double>(truth)),
                CycleAgmLog2(log_r, k), CyclePandaLog2(log_r, log_inf, k));
    for (int qn = 1; qn <= 5; ++qn) {
      std::vector<double> logs(k, deg.Log2NormP(qn));
      std::printf("  %9.2f", CycleLog2(logs, qn));
    }

    CollectorOptions opt;
    for (int qq = 1; qq <= p; ++qq) opt.norms.push_back(qq);
    opt.norms.push_back(kInfNorm);
    auto stats = CollectStatistics(q, db, opt);
    auto bound = ComputeBound("auto", q.num_vars(), stats);
    std::printf(" %10.2f\n", bound.log2_bound);
  }
  std::printf("\n");
}

void BM_CycleBound(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const int k = p + 1;
  uint64_t m = 1;
  for (int i = 0; i < k; ++i) m *= 8;
  Catalog db;
  db.Add(AlphaBetaRelation("R", m, 1.0 / k, 1.0 / k));
  Query q = CycleQuery(k);
  CollectorOptions opt;
  for (int qq = 1; qq <= p; ++qq) opt.norms.push_back(qq);
  opt.norms.push_back(kInfNorm);
  auto stats = CollectStatistics(q, db, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeBound("auto", q.num_vars(), stats).log2_bound);
  }
}
BENCHMARK(BM_CycleBound)->Arg(2)->Arg(3)->Arg(4);

}  // namespace
}  // namespace lpb

int main(int argc, char** argv) {
  lpb::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
