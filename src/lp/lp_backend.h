// Solver identity, kernel-mode resolution and row normalization of the LP
// layer.
//
// The one LP solver is the sparse revised simplex (lp/revised_simplex.h)
// behind SimplexTableau (lp/tableau.h). This header holds the pieces
// around it that callers outside the solver also need: the name of the
// solver for reports, the SIMD mode of the kernel dispatch, and the sign
// normalization of constraint rows, which the dense test oracle
// (tests/dense_oracle.h) applies identically.
#ifndef LPB_LP_LP_BACKEND_H_
#define LPB_LP_LP_BACKEND_H_

#include <vector>

#include "lp/lp_problem.h"
#include "lp/simplex.h"

namespace lpb {

// Row normalization: rows are flipped when the RHS is negative, and also
// when a >= row has RHS 0 — the flipped row is a <= row whose slack gives a
// feasible basis, avoiding an artificial variable entirely (the common
// case for the engines' homogeneous Shannon cuts).
struct NormalizedRows {
  std::vector<LpSense> sense;     // per row, post-flip
  std::vector<double> row_sign;   // +1 / -1 per row
  int num_slack = 0;              // slack/surplus columns needed
  int num_art = 0;                // artificial columns needed
};
NormalizedRows NormalizeRows(const LpProblem& problem,
                             const std::vector<double>& rhs);

// The solver `options` run on. Always kRevised; kept so reports can name
// the solver from the options they were given.
LpBackendKind ResolveLpBackend(const SimplexOptions& options);

// The kernel dispatch mode `options` run on: options.simd. Kept so reports
// can name the dispatch from the options they were given.
SimdMode ResolveSimdMode(const SimplexOptions& options);

}  // namespace lpb

#endif  // LPB_LP_LP_BACKEND_H_
