#include "lp/tableau.h"

namespace lpb {

SimplexTableau::SimplexTableau(const LpProblem& problem,
                               const SimplexOptions& options)
    : num_constraints_(problem.num_constraints()), solver_(problem, options) {}

LpResult SimplexTableau::Solve(const std::vector<double>& rhs) {
  return solver_.Solve(rhs);
}

LpResult SimplexTableau::ResolveWithRhs(const std::vector<double>& rhs) {
  return solver_.ResolveWithRhs(rhs);
}

std::vector<LpResult> SimplexTableau::ResolveWithRhsBatch(
    std::span<const std::vector<double>> rhs_batch) {
  std::vector<LpResult> results;
  ResolveWithRhsBatch(rhs_batch, results);
  return results;
}

void SimplexTableau::ResolveWithRhsBatch(
    std::span<const std::vector<double>> rhs_batch,
    std::vector<LpResult>& out) {
  solver_.ResolveWithRhsBatch(rhs_batch, out);
}

void SimplexTableau::ResolveWithRhsBatchRelaxed(
    std::span<const std::vector<double>> rhs_batch,
    std::vector<LpResult>& out) {
  solver_.ResolveWithRhsBatchRelaxed(rhs_batch, out);
}

bool SimplexTableau::AddConstraintsWarm(const std::vector<LpConstraint>& rows,
                                        const std::vector<double>& rhs,
                                        LpResult& result) {
  if (!solver_.AddConstraintsWarm(rows, rhs, result)) return false;
  num_constraints_ += static_cast<int>(rows.size());
  return true;
}

}  // namespace lpb
