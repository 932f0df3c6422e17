// Ablation study (design-choice analysis from DESIGN.md): how does the
// bound degrade as the available norm set shrinks? Mirrors the paper's
// observation that the JOB optima draw on norms from all over {1..30, ∞}
// and that dropping ℓ2 from the triangle statistics costs 1.3-4.7x
// (App. C.1).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "bounds/bound_engine.h"
#include "datagen/graph_gen.h"
#include "datagen/job_gen.h"
#include "exec/yannakakis.h"
#include "exec/generic_join.h"
#include "query/parser.h"
#include "stats/collector.h"

namespace lpb {
namespace {

double BoundWithNorms(const Query& q, const Catalog& db,
                      std::vector<double> norms) {
  CollectorOptions opt;
  opt.norms = std::move(norms);
  auto stats = CollectStatistics(q, db, opt);
  return ComputeBound("auto", q.num_vars(), stats).log2_bound;
}

void PrintTable() {
  std::printf("== Norm-set ablation ==\n");

  // Triangle on a skewed graph: drop norms one class at a time.
  {
    GraphSpec spec = SnapStandInSpecs()[0];  // ca_GrQc
    Catalog db;
    Relation g = GeneratePowerLawGraph(spec);
    g.set_name("E");
    db.Add(std::move(g));
    Query q = *ParseQuery("E(X,Y), E(Y,Z), E(Z,X)");
    const uint64_t truth = CountJoin(q, db);
    std::printf("triangle on %s (true %llu):\n", spec.name.c_str(),
                static_cast<unsigned long long>(truth));
    struct Case {
      const char* label;
      std::vector<double> norms;
    };
    const Case cases[] = {
        {"{1}", {1.0}},
        {"{1,inf}", {1.0, kInfNorm}},
        {"{1,2,inf}", {1.0, 2.0, kInfNorm}},
        {"{1,3,inf} (no l2)", {1.0, 3.0, kInfNorm}},
        {"{1,4,inf}", {1.0, 4.0, kInfNorm}},
        {"{1..5,inf}", {1.0, 2.0, 3.0, 4.0, 5.0, kInfNorm}},
    };
    for (const Case& c : cases) {
      const double b = BoundWithNorms(q, db, c.norms);
      std::printf("  %-20s ratio %10s\n", c.label, Sci(Ratio(b, truth)).c_str());
    }
  }

  // A JOB query: cumulative norm sets.
  {
    JobWorkloadOptions jopt;
    jopt.scale = 0.2;
    JobWorkload wl = GenerateJobWorkload(jopt);
    const Query& q = wl.queries[8];  // q9
    auto fast = CountAcyclic(q, wl.catalog);
    const uint64_t truth = fast.value_or(0);
    std::printf("JOB %s (true %llu):\n", q.name().c_str(),
                static_cast<unsigned long long>(truth));
    std::vector<double> norms = {1.0, kInfNorm};
    std::printf("  %-20s ratio %10s\n", "{1,inf}",
                Sci(Ratio(BoundWithNorms(q, wl.catalog, norms), truth)).c_str());
    for (int p = 2; p <= 8; ++p) {
      norms.push_back(p);
      char label[32];
      std::snprintf(label, sizeof(label), "{1..%d,inf}", p);
      std::printf("  %-20s ratio %10s\n", label,
                  Sci(Ratio(BoundWithNorms(q, wl.catalog, norms), truth))
                      .c_str());
    }
  }
  std::printf("\n");
}

void BM_AblationBoundSmallNormSet(benchmark::State& state) {
  JobWorkloadOptions jopt;
  jopt.scale = 0.1;
  JobWorkload wl = GenerateJobWorkload(jopt);
  const Query& q = wl.queries[8];
  CollectorOptions opt;
  opt.norms = {1.0, 2.0, kInfNorm};
  auto stats = CollectStatistics(q, wl.catalog, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeBound("auto", q.num_vars(), stats).log2_bound);
  }
}
BENCHMARK(BM_AblationBoundSmallNormSet);

void BM_AblationBoundLargeNormSet(benchmark::State& state) {
  JobWorkloadOptions jopt;
  jopt.scale = 0.1;
  JobWorkload wl = GenerateJobWorkload(jopt);
  const Query& q = wl.queries[8];
  CollectorOptions opt;
  for (int p = 1; p <= 30; ++p) opt.norms.push_back(p);
  opt.norms.push_back(kInfNorm);
  auto stats = CollectStatistics(q, wl.catalog, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeBound("auto", q.num_vars(), stats).log2_bound);
  }
}
BENCHMARK(BM_AblationBoundLargeNormSet);

void BM_YannakakisVsWcoj(benchmark::State& state) {
  JobWorkloadOptions jopt;
  jopt.scale = 0.1;
  JobWorkload wl = GenerateJobWorkload(jopt);
  const Query& q = wl.queries[8];
  const bool fast = state.range(0) == 1;
  for (auto _ : state) {
    if (fast) {
      benchmark::DoNotOptimize(CountAcyclic(q, wl.catalog).value());
    } else {
      benchmark::DoNotOptimize(CountJoin(q, wl.catalog));
    }
  }
  state.SetLabel(fast ? "yannakakis" : "wcoj");
}
BENCHMARK(BM_YannakakisVsWcoj)->Arg(0)->Arg(1);

}  // namespace
}  // namespace lpb

int main(int argc, char** argv) {
  lpb::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
