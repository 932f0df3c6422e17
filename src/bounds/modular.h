// The modular bound of Appendix B (the Jayaraman-Ropell-Rudra LP (42)).
//
// Optimizes h(X) over MODULAR functions h = Σ_i w_i h_{X_i} only. By the
// duality of Sec 5 this equals the best product-database bound, and it is
// the (dual of the) LP used by [14]. It is NOT a sound output bound in
// general: modular functions are a strict subset of the normal
// polymatroids, so the optimum can undercut the true worst case (Example
// B.1). Theorem B.2 restores soundness when every statistic is a
// (X_j | X_i) pair statistic with a common p and the query's binary graph
// has girth > p; tests exercise both sides.
#ifndef LPB_BOUNDS_MODULAR_H_
#define LPB_BOUNDS_MODULAR_H_

#include <vector>

#include "bounds/bound_engine.h"
#include "stats/statistic.h"

namespace lpb {

struct ModularBoundResult {
  BoundResult base;
  // Optimal per-variable weights: h* = Σ_i weight[i] · h_{X_i}.
  std::vector<double> var_weights;
};

// max h(X) over modular h >= 0 subject to the statistics (each statistic
// contributes Σ_{i∈U} w_i / p + Σ_{i∈V∖U} w_i <= log_b).
ModularBoundResult ModularBound(int n,
                                const std::vector<ConcreteStatistic>& stats);

}  // namespace lpb

#endif  // LPB_BOUNDS_MODULAR_H_
