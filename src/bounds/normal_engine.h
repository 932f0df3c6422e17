// The normal-polymatroid bound engine (Sec 6 / Theorem 6.1).
//
// Optimizes h(X) over Nn, the cone of normal polymatroids h = Σ_W α_W h_W
// with α_W >= 0. The LP has one variable per nonempty W ⊆ X and only the
// statistics as constraints (every nonnegative combination of step
// functions is automatically a polymatroid), so it is dramatically smaller
// than the Γn LP. By Theorem 6.1 the optimum EQUALS the polymatroid bound
// whenever all statistics are simple (|U| <= 1) — the common case in
// practice (per-join-column degree sequences) — and the optimal α* feeds
// the worst-case database construction of Lemma 6.2.
//
// CAUTION: for non-simple statistics Nn ⊊ Γn makes this a lower bound on
// the polymatroid bound, NOT a valid output-size bound; callers must check
// AllSimple() (NormalPolymatroidBound asserts it unless told otherwise).
#ifndef LPB_BOUNDS_NORMAL_ENGINE_H_
#define LPB_BOUNDS_NORMAL_ENGINE_H_

#include <vector>

#include "bounds/engine.h"
#include "stats/statistic.h"

namespace lpb {

struct NormalBoundResult {
  BoundResult base;
  // Optimal step-function coefficients α*_W, indexed by VarSet (entry 0
  // unused). h_opt == Σ_W alpha[W] · h_W.
  std::vector<double> alpha;
};

// Computes max h(X) over normal polymatroids satisfying the statistics.
// If `require_simple` (default), asserts AllSimple(stats). `simplex`
// selects the LP solver configuration (lp/simplex.h).
NormalBoundResult NormalPolymatroidBound(
    int n, const std::vector<ConcreteStatistic>& stats,
    bool require_simple = true, const SimplexOptions& simplex = {});

// Builds the Nn LP: maximize Σ_W α_W over α >= 0 with one <= row per
// statistic (rhs = stat.log_b), in statistics order. The matrix depends
// only on the statistic *shapes* (σ, p), never on the values — the
// compiled-bound pipeline (bounds/bound_engine.h) builds it once per
// structure and re-solves per log_b vector.
LpProblem BuildNormalBoundLp(int n,
                             const std::vector<ConcreteStatistic>& stats);

// Convenience dispatcher: uses the normal engine when all statistics are
// simple (valid and fast, Theorem 6.1), otherwise the Γn cutting-plane
// engine.
BoundResult LpNormBound(int n, const std::vector<ConcreteStatistic>& stats,
                        const EngineOptions& options = {});

}  // namespace lpb

#endif  // LPB_BOUNDS_NORMAL_ENGINE_H_
