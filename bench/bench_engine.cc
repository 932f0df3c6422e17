// Sec 5: computing the bound is an LP exponential in the query size. Times
// the Γn engine (full lattice vs cutting plane) and the Nn engine across
// path and cycle queries of growing variable count, and reports the
// Appendix D.2 non-Shannon gap instance.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "bounds/bound_engine.h"

namespace lpb {
namespace {

ConcreteStatistic Stat(VarSet u, VarSet v, double p, double log_b) {
  ConcreteStatistic s;
  s.sigma = {u, v};
  s.p = p;
  s.log_b = log_b;
  return s;
}

// Simple statistics for a path query over n variables.
std::vector<ConcreteStatistic> PathStats(int n) {
  std::vector<ConcreteStatistic> stats;
  for (int i = 0; i + 1 < n; ++i) {
    const VarSet u = VarBit(i), v = VarBit(i + 1);
    stats.push_back(Stat(0, u | v, 1.0, 10.0));
    stats.push_back(Stat(u, v, 2.0, 6.0));
    stats.push_back(Stat(v, u, 2.0, 6.0));
    stats.push_back(Stat(u, v, kInfNorm, 3.0));
  }
  return stats;
}

std::vector<ConcreteStatistic> CycleStats(int n) {
  auto stats = PathStats(n);
  const VarSet u = VarBit(n - 1), v = VarBit(0);
  stats.push_back(Stat(0, u | v, 1.0, 10.0));
  stats.push_back(Stat(u, v, 2.0, 6.0));
  return stats;
}

void PrintTable() {
  std::printf("== Bound-computation scaling (Sec 5) ==\n");
  std::printf("%-6s %-7s %12s %12s %12s %10s %10s\n", "vars", "query",
              "Gamma-full", "Gamma-cuts", "Normal(Nn)", "bound", "rounds");
  for (int n = 4; n <= 12; n += 2) {
    for (bool cycle : {false, true}) {
      auto stats = cycle ? CycleStats(n) : PathStats(n);
      double t_full = -1.0, t_cuts = -1.0, t_norm = -1.0;
      double bound = 0.0;
      int rounds = 0;

      if (n <= 8) {
        EngineOptions full;
        full.full_lattice_max_n = 12;
        auto t0 = std::chrono::steady_clock::now();
        auto r = ComputeBound("gamma", n, stats, full);
        t_full = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
        bound = r.log2_bound;
      }
      if (n <= 8) {
        EngineOptions cuts;
        cuts.full_lattice_max_n = 3;
        // Cold cut growth (rebuild + two-phase solve per round): on these
        // path/cycle structures warm row appends take minutes at n = 8,
        // cold growth about a second.
        cuts.simplex.cut_warm_start = CutWarmStart::kOff;
        auto t0 = std::chrono::steady_clock::now();
        auto r = ComputeBound("gamma", n, stats, cuts);
        t_cuts = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
        bound = r.log2_bound;
        rounds = r.cut_rounds;
      }
      {
        auto t0 = std::chrono::steady_clock::now();
        auto r = ComputeBound("normal", n, stats);
        t_norm = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
        bound = r.log2_bound;
      }
      std::printf("%-6d %-7s %12.4f %12.4f %12.4f %10.3f %10d\n", n,
                  cycle ? "cycle" : "path", t_full, t_cuts, t_norm, bound,
                  rounds);
    }
  }
  std::printf("(times in seconds; -1 = skipped: LP too large at this n)\n\n");
}

void BM_GammaFullLattice(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto stats = PathStats(n);
  EngineOptions opt;
  opt.full_lattice_max_n = 12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeBound("gamma", n, stats, opt).log2_bound);
  }
}
BENCHMARK(BM_GammaFullLattice)->Arg(4)->Arg(6)->Arg(8);

void BM_GammaCuttingPlane(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto stats = PathStats(n);
  EngineOptions opt;
  opt.full_lattice_max_n = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeBound("gamma", n, stats, opt).log2_bound);
  }
}
BENCHMARK(BM_GammaCuttingPlane)->Arg(4)->Arg(5)->Arg(6);

void BM_NormalEngine(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto stats = PathStats(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeBound("normal", n, stats).log2_bound);
  }
}
BENCHMARK(BM_NormalEngine)->Arg(6)->Arg(10)->Arg(14);

}  // namespace
}  // namespace lpb

int main(int argc, char** argv) {
  lpb::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
