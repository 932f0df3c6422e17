// Dense-tableau reference solver for the LP tests.
//
// An independent implementation of the LP contract of lp/tableau.h, kept
// as a test oracle: a textbook two-phase primal simplex on an explicit
// rows x cols long-double tableau, Dantzig pricing, and a lexicographic
// ratio test over the slack/artificial block for termination on
// degenerate LPs. Every pivot sweeps the whole tableau, so it is only
// meant for the small LPs the tests generate. It shares nothing with the
// revised simplex beyond the row sign normalization (lp/lp_backend.h),
// which makes it the reference the differential harness holds the
// production solver to: statuses, objectives and the sign conventions of
// the duals.
//
// Cold solves only: a warm resolve of the production solver is checked
// against an oracle cold solve at the same right-hand side.
//
// FullLatticeLp is the matching reference for the Γn bound engine: the
// bound LP written out directly, sharing no code with the compiled
// engines in bounds/bound_engine.cc.
#ifndef LPB_TESTS_DENSE_ORACLE_H_
#define LPB_TESTS_DENSE_ORACLE_H_

#include <vector>

#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "stats/statistic.h"

namespace lpb {

// Solves `problem` from scratch; a non-empty `rhs` (size
// num_constraints) overrides the problem's right-hand sides. The result
// follows the LpResult contract of lp/simplex.h: status always set,
// x/duals always sized, path kCold.
LpResult DenseOracleSolve(const LpProblem& problem,
                          const std::vector<double>& rhs = {});

// The polymatroid bound LP over the fully materialized lattice Γn:
// statistics rows (1/p)h(U) + h(V|U) <= log_b in statistics order (so the
// first duals are the statistics' weights), then every elemental Shannon
// inequality; maximize h(full). Column S - 1 is h(S).
LpProblem FullLatticeLp(int n, const std::vector<ConcreteStatistic>& stats);

}  // namespace lpb

#endif  // LPB_TESTS_DENSE_ORACLE_H_
