// Reproduces Figure 1 (Appendix C.2): for each of the 33 JOB-style acyclic
// queries, the ratio to the true cardinality of (a) our ℓp bound with the
// norm set it used, (b) the AGM {1}-bound, (c) the PANDA {1,∞}-bound and
// (d) the traditional (DuckDB stand-in) estimate.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "bounds/agm.h"
#include "bounds/bound_engine.h"
#include "datagen/job_gen.h"
#include "estimator/traditional.h"
#include "exec/generic_join.h"
#include "stats/collector.h"

namespace lpb {
namespace {

CollectorOptions FullNorms() {
  CollectorOptions opt;
  for (int p = 1; p <= 30; ++p) opt.norms.push_back(p);
  opt.norms.push_back(kInfNorm);
  return opt;
}

void PrintTable(const JobWorkload& wl) {
  std::printf(
      "== JOB benchmark, 33 acyclic queries (Figure 1; synthetic IMDB "
      "stand-in) ==\n");
  std::printf("ratios of bound/estimate to the true cardinality\n");
  std::printf("%-5s %5s %12s %10s %-22s %10s %10s %10s\n", "query", "#rel",
              "true", "ours", "norms used", "AGM:{1}", "PANDA", "DuckDB");
  CollectorOptions opt = FullNorms();
  for (const Query& q : wl.queries) {
    const uint64_t truth = CountJoin(q, wl.catalog);
    auto stats = CollectStatistics(q, wl.catalog, opt);
    auto ours = ComputeBound("auto", q.num_vars(), stats);
    auto panda = ComputeBound("panda", q.num_vars(), stats);
    AgmResult agm = AgmBound(q, wl.catalog);
    const double duck = TraditionalEstimateLog2(q, wl.catalog);
    std::printf("%-5s %5d %12llu %10s %-22s %10s %10s %10s\n",
                q.name().c_str(), q.num_atoms(),
                static_cast<unsigned long long>(truth),
                Sci(Ratio(ours.log2_bound, truth)).c_str(),
                UsedNorms(ours, stats).c_str(),
                Sci(Ratio(agm.log2_bound, truth)).c_str(),
                Sci(Ratio(panda.log2_bound, truth)).c_str(),
                Sci(Ratio(duck, truth)).c_str());
  }
  std::printf("\n");
}

const JobWorkload& SharedWorkload() {
  static JobWorkload wl = [] {
    JobWorkloadOptions opt;
    opt.scale = 0.25;
    return GenerateJobWorkload(opt);
  }();
  return wl;
}

void BM_JobBoundPerQuery(benchmark::State& state) {
  const JobWorkload& wl = SharedWorkload();
  const Query& q = wl.queries[static_cast<size_t>(state.range(0))];
  auto stats = CollectStatistics(q, wl.catalog, FullNorms());
  for (auto _ : state) {
    auto bound = ComputeBound("auto", q.num_vars(), stats);
    benchmark::DoNotOptimize(bound.log2_bound);
  }
  state.SetLabel(q.name());
}
BENCHMARK(BM_JobBoundPerQuery)->Arg(0)->Arg(8)->Arg(27)->Arg(32);

void BM_JobStatsCollection(benchmark::State& state) {
  const JobWorkload& wl = SharedWorkload();
  const Query& q = wl.queries[8];  // q9: three fact stars
  for (auto _ : state) {
    auto stats = CollectStatistics(q, wl.catalog, FullNorms());
    benchmark::DoNotOptimize(stats.size());
  }
}
BENCHMARK(BM_JobStatsCollection);

void BM_JobTrueCount(benchmark::State& state) {
  const JobWorkload& wl = SharedWorkload();
  const Query& q = wl.queries[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountJoin(q, wl.catalog));
  }
}
BENCHMARK(BM_JobTrueCount);

}  // namespace
}  // namespace lpb

int main(int argc, char** argv) {
  lpb::PrintTable(lpb::SharedWorkload());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
