// The normal-polymatroid bound LP (Sec 6 / Theorem 6.1).
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
// The "normal" engine of bounds/bound_engine.h compiles this LP; it is
// solved there (ComputeBound("normal", ...) for a one-shot bound, with α*
// in BoundResult::alpha).
//
// CAUTION: for non-simple statistics Nn ⊊ Γn makes this a lower bound on
// the polymatroid bound, NOT a valid output-size bound; the "normal" engine
// therefore does not Support non-simple structures.
#ifndef LPB_BOUNDS_NORMAL_ENGINE_H_
#define LPB_BOUNDS_NORMAL_ENGINE_H_

#include <vector>

#include "lp/lp_problem.h"
#include "stats/statistic.h"

namespace lpb {

// Builds the Nn LP: maximize Σ_W α_W over α >= 0 with one <= row per
// statistic (rhs = stat.log_b), in statistics order; column W - 1 is α_W.
// The matrix depends only on the statistic *shapes* (σ, p), never on the
// values — the compiled-bound pipeline (bounds/bound_engine.h) builds it
// once per structure and re-solves per log_b vector.
LpProblem BuildNormalBoundLp(int n,
                             const std::vector<ConcreteStatistic>& stats);

}  // namespace lpb

#endif  // LPB_BOUNDS_NORMAL_ENGINE_H_
