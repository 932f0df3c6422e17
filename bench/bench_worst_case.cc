// Sec 6 tightness: for simple statistics the polymatroid bound is achieved
// (up to a query-dependent constant) by a normal database. Reproduces
// Example 6.7: the normal (diagonal) instance reaches ~B while every
// product database is capped at B^{3/5}.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "bounds/bound_engine.h"
#include "bounds/worst_case.h"
#include "exec/generic_join.h"
#include "query/parser.h"

namespace lpb {
namespace {

ConcreteStatistic Stat(VarSet u, VarSet v, double p, double log_b) {
  ConcreteStatistic s;
  s.sigma = {u, v};
  s.p = p;
  s.log_b = log_b;
  return s;
}

std::vector<ConcreteStatistic> Example67Stats(double b) {
  // ||deg(Y|X)||_4^4 <= B etc. and |S_i| <= B (Eq. 40).
  return {
      Stat(0, 0b001, 1.0, b),          Stat(0, 0b010, 1.0, b),
      Stat(0, 0b100, 1.0, b),          Stat(0b001, 0b010, 4.0, b / 4),
      Stat(0b010, 0b100, 4.0, b / 4),  Stat(0b100, 0b001, 4.0, b / 4),
  };
}

void PrintTable() {
  std::printf(
      "== Worst-case normal database vs product database (Example 6.7) "
      "==\n");
  std::printf("%-8s %10s %14s %14s %16s\n", "log2 B", "bound",
              "|Q(normal D)|", "achieved/2^bd", "product cap B^(3/5)");
  Query q = *ParseQuery("R1(X,Y), R2(Y,Z), R3(Z,X), S1(X), S2(Y), S3(Z)");
  for (double b : {4.0, 6.0, 8.0, 10.0, 12.0}) {
    auto bound = ComputeBound("normal", q.num_vars(), Example67Stats(b));
    if (!bound.ok()) continue;
    WorstCaseInstance wc = BuildWorstCaseDatabase(q, bound.alpha);
    const uint64_t count = CountJoin(q, wc.database);
    std::printf("%-8.1f %10.3f %14llu %14.3f %16.1f\n", b,
                bound.log2_bound,
                static_cast<unsigned long long>(count),
                static_cast<double>(count) / std::exp2(bound.log2_bound),
                std::exp2(3.0 * b / 5.0));
  }
  std::printf(
      "(achieved/2^bound >= 1/2^c by Cor. 6.3; the product cap is far "
      "below the normal instance)\n\n");
}

void BM_WorstCaseConstruction(benchmark::State& state) {
  Query q = *ParseQuery("R1(X,Y), R2(Y,Z), R3(Z,X), S1(X), S2(Y), S3(Z)");
  auto bound = ComputeBound("normal", q.num_vars(), Example67Stats(10.0));
  for (auto _ : state) {
    WorstCaseInstance wc = BuildWorstCaseDatabase(q, bound.alpha);
    benchmark::DoNotOptimize(wc.witness.NumRows());
  }
}
BENCHMARK(BM_WorstCaseConstruction);

void BM_NormalBoundExample67(benchmark::State& state) {
  Query q = *ParseQuery("R1(X,Y), R2(Y,Z), R3(Z,X), S1(X), S2(Y), S3(Z)");
  auto stats = Example67Stats(10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeBound("normal", q.num_vars(), stats).log2_bound);
  }
}
BENCHMARK(BM_NormalBoundExample67);

}  // namespace
}  // namespace lpb

int main(int argc, char** argv) {
  lpb::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
