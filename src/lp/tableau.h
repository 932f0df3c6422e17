// Compile-once / solve-many simplex handle.
//
// SimplexTableau splits the LP lifecycle that SolveLp() fuses: the
// constraint *matrix* and objective are fixed at construction ("compile"),
// while the right-hand side is a parameter of each solve. This matches the
// bound LPs of the paper exactly — Eq. (36)'s matrix depends only on the
// query structure and the statistic shapes, and the concrete ℓp-norm values
// log_b enter solely through the RHS — so a query template is compiled once
// and re-evaluated per statistics snapshot.
//
// Three evaluation paths, cheapest first (LpResult::path reports which ran):
//   * kWitness — the optimal basis cached by the previous solve is still
//     primal-feasible at the new RHS. Since the matrix and objective are
//     unchanged, the basis is still dual-feasible by construction, so the
//     result is read off the cached factorization with zero pivots: the new
//     basic solution is B⁻¹b' (only the nonzero RHS entries contribute) and
//     the duals — the paper's witness weights w_i — are unchanged.
//   * kWarm — the cached basis went primal-infeasible; dual-simplex pivots
//     restore feasibility starting from the still-dual-feasible basis,
//     typically in a handful of iterations for small RHS perturbations.
//   * kCold — no cached basis (first solve, or the previous solve did not
//     end optimal), or the warm path failed; full two-phase primal simplex.
//
// The pivoting itself is done by the sparse revised simplex with an
// LU-factorized basis (lp/revised_simplex.h), which this handle owns. Its
// results are checked against an independent dense-tableau oracle by the
// randomized differential harness (tests/test_simplex_differential.cc);
// see src/lp/README.md.
#ifndef LPB_LP_TABLEAU_H_
#define LPB_LP_TABLEAU_H_

#include <span>
#include <vector>

#include "lp/lp_problem.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"

namespace lpb {

class SimplexTableau {
 public:
  // Compiles the column layout and row normalization from `problem`. The
  // problem is copied; the tableau owns everything it needs.
  explicit SimplexTableau(const LpProblem& problem,
                          const SimplexOptions& options = {});

  int num_constraints() const { return num_constraints_; }

  // Cold two-phase solve. `rhs` (size num_constraints) overrides the
  // problem's right-hand sides; empty uses the problem's own. On an optimal
  // finish the final basis is cached for ResolveWithRhs.
  LpResult Solve(const std::vector<double>& rhs = {});

  // Warm re-solve against a new RHS, reusing the cached optimal basis (see
  // file comment for the witness / warm / cold cascade). Behaves like
  // Solve(rhs) when no basis is cached.
  LpResult ResolveWithRhs(const std::vector<double>& rhs);

  // Multi-RHS warm re-solve: runs the cascade on every column of
  // `rhs_batch` in order, producing results identical to per-column
  // ResolveWithRhs calls (the cached basis evolves across columns exactly
  // as it would across scalar calls). The block is amortized: one cached
  // LU factorization serves an FTRAN per column and the cached duals (one
  // cost-row BTRAN) serve every witness-valid column; only columns whose
  // basis goes stale pay dual-simplex or cold work.
  std::vector<LpResult> ResolveWithRhsBatch(
      std::span<const std::vector<double>> rhs_batch);
  // Allocation-free form: results land in `out` (resized and fully
  // overwritten), so a caller looping over batches reuses the vector and
  // each element's x/duals capacity instead of re-allocating per column.
  void ResolveWithRhsBatch(std::span<const std::vector<double>> rhs_batch,
                           std::vector<LpResult>& out);

  // Order-relaxed block resolve: same objective values and statuses as
  // ResolveWithRhsBatch, but witness-valid columns are served first
  // against one pinned basis (keeping the B⁻¹-column memo and the
  // incremental re-price baseline valid for the whole pass) and stale
  // columns pivot afterwards — so a handful of pivoting columns no longer
  // forces every later column back to full FTRAN re-prices. Not bitwise
  // identical to the scalar sequence; used by the cutting-plane batch
  // path, whose parity contract is tolerance, not bits (bound_engine.h).
  void ResolveWithRhsBatchRelaxed(
      std::span<const std::vector<double>> rhs_batch,
      std::vector<LpResult>& out);

  // Incremental row append on top of the cached optimal basis (the
  // cutting-plane growth path): installs `rows` with their slacks basic —
  // the previous optimum keeps its duals, so the extended basis is dual
  // feasible by construction — and runs dual simplex to repair only the
  // rows the old optimum violates. `rhs` is the full new RHS including the
  // appended rows; callers that keep their own LpProblem (for a later cold
  // rebuild) must mirror the append there themselves. Returns false when
  // the tableau declines (no cached basis, a row that does not normalize
  // to <=, or an existing artificial column); on decline the tableau is
  // unchanged and the caller must recompile + solve cold, and `result` is
  // untouched.
  bool AddConstraintsWarm(const std::vector<LpConstraint>& rows,
                          const std::vector<double>& rhs, LpResult& result);

  // True after a solve that ended kOptimal: ResolveWithRhs can warm-start.
  bool has_optimal_basis() const { return solver_.has_optimal_basis(); }
  // Basic column index per row of the cached basis (internal column ids:
  // structural columns first, then slack/surplus, then artificial).
  const std::vector<int>& basis() const { return solver_.basis(); }

 private:
  int num_constraints_;
  RevisedSimplex solver_;
};

}  // namespace lpb

#endif  // LPB_LP_TABLEAU_H_
