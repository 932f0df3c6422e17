#include "lp/simplex.h"

#include "lp/tableau.h"

namespace lpb {

// The one-shot entry point: compile a tableau, run the two-phase simplex,
// throw the tableau away. Callers that re-solve the same matrix with
// different right-hand sides should hold a SimplexTableau instead
// (lp/tableau.h) and use ResolveWithRhs.
LpResult SolveLp(const LpProblem& problem, const SimplexOptions& options) {
  SimplexTableau tableau(problem, options);
  return tableau.Solve();
}

}  // namespace lpb
