// The polymatroid bound engine (Contributions 1 & 4 of the paper).
//
// Computes Log-L-Bound_Γn(Σ, b) = max { h(X) : h ∈ Γn, h |= (Σ, b) }
// (Eq. (36)), which by Theorem 5.2 equals Log-U-Bound_Γn — the best upper
// bound on log2 |Q(D)| derivable from Shannon inequalities and the given
// ℓp-norm statistics (Theorem 1.1). The LP has one variable per nonempty
// subset of query variables; Shannon constraints are either fully
// materialized (small n) or generated lazily by a cutting-plane loop that
// adds the most violated elemental inequalities until the optimum is
// Shannon-feasible.
//
// == Compile/evaluate architecture ==
//
// The bound LP factors cleanly into structure and values: the constraint
// matrix depends only on the query's variable count and the statistic
// *shapes* (σ = (V|U), p), while the concrete ℓp-norm values log_b enter
// solely through the right-hand side. Two evaluation styles exploit this:
//
//   * One-shot (this header): PolymatroidBound / NormalPolymatroidBound /
//     LpNormBound build and solve a fresh LP per call. Use these for
//     single bounds, for the worst-case-database α* coefficients, and in
//     tests as the reference the compiled path must reproduce.
//   * Compile-once / evaluate-many (bounds/bound_engine.h): a BoundEngine
//     compiles a structure into a CompiledBound whose Evaluate(log_b)
//     first tries the cached dual witness (the previous optimal basis,
//     re-priced with one matrix-vector product and a dot product), then a
//     warm dual-simplex re-solve, then a cold solve. Use this — via
//     CardinalityAdvisor — whenever the same query template is estimated
//     against many statistics snapshots.
//
// == Engine selection ==
//
//   * "normal" (Nn, bounds/normal_engine.h): exact and fast whenever every
//     statistic is simple (|U| <= 1, Theorem 6.1) — the common case of
//     per-join-column degree sequences; scales to n = 20. Unsound for
//     non-simple statistics.
//   * "gamma" (Γn, this header): the general engine. Full elemental
//     lattice for n <= full_lattice_max_n, cutting-plane beyond that
//     (experimental past n ≈ 7; see EngineOptions).
//   * "auto": normal when all shapes are simple, gamma otherwise — what
//     the advisor uses.
//   * "agm" / "panda": the classic special cases, as shape filters on top
//     of "auto" ({1}: cardinalities only; {1,∞}).
#ifndef LPB_BOUNDS_ENGINE_H_
#define LPB_BOUNDS_ENGINE_H_

#include <vector>

#include "entropy/set_function.h"
#include "lp/simplex.h"
#include "stats/statistic.h"

namespace lpb {

struct EngineOptions {
  // Materialize every elemental inequality when n <= this; otherwise run
  // the cutting-plane loop, which the revised simplex's warm cut appends
  // keep tractable to n = 10 (src/lp/README.md). Every workload in the
  // paper either fits the full lattice (n <= 8, arbitrary statistics) or
  // uses simple statistics, where the normal-polymatroid engine is exact
  // (Theorem 6.1) and fast to n = 20.
  int full_lattice_max_n = 8;
  int max_cut_rounds = 500;
  int cuts_per_round = 256;
  double feasibility_eps = 1e-7;
  // LP solver configuration (pricing rule, cut warm starts, tolerances;
  // see lp/simplex.h).
  SimplexOptions simplex;
};

struct BoundResult {
  // True if the LP solved; false on solver failure (see status).
  LpStatus status = LpStatus::kIterationLimit;
  // log2 of the output-size bound; +infinity when the statistics do not
  // bound the query at all (LP unbounded).
  double log2_bound = 0.0;
  // Dual weight w_i per input statistic: the coefficients of the witness
  // Σ-inequality (8) certifying the bound; Σ_i w_i log_b_i == log2_bound.
  std::vector<double> weights;
  // The optimal polymatroid h* (lower-bound witness of Theorem 5.2).
  SetFunction h_opt;
  int cut_rounds = 0;
  int lp_iterations = 0;
  // How the underlying LP was evaluated. Always kCold for the one-shot
  // entry points; CompiledBound::Evaluate reports witness/warm reuse here.
  LpEvalPath eval_path = LpEvalPath::kCold;
  // Which pricing rule the LP's primal phases ran
  // (SimplexOptions::pricing).
  PricingRule lp_pricing = PricingRule::kDantzig;
  // Solver pivot/update/refactorization counters, summed over every LP
  // call this evaluation made (unlike lp_iterations, which reports the
  // final solve only, these cover all cut-growth rounds too). Aggregated
  // into AdvisorMetrics and the bench_throughput pivot gates.
  LpSolveStats lp_stats;

  bool ok() const { return status == LpStatus::kOptimal; }
  bool unbounded() const { return status == LpStatus::kUnbounded; }
};

// Computes the polymatroid bound over n query variables from the given
// concrete statistics (each statistic contributes the constraint
// (1/p)h(U) + h(V|U) <= log_b, Lemma 4.1).
BoundResult PolymatroidBound(int n, const std::vector<ConcreteStatistic>& stats,
                             const EngineOptions& options = {});

// Filters for the classic special cases:
//   AGM ({1}): only cardinality assertions (p == 1, U == ∅);
//   PANDA ({1,∞}): only p ∈ {1, ∞} statistics.
std::vector<ConcreteStatistic> FilterAgmStatistics(
    const std::vector<ConcreteStatistic>& stats);
std::vector<ConcreteStatistic> FilterPandaStatistics(
    const std::vector<ConcreteStatistic>& stats);

}  // namespace lpb

#endif  // LPB_BOUNDS_ENGINE_H_
