#include "bounds/modular.h"

#include <cassert>

#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "relation/degree_sequence.h"

namespace lpb {

ModularBoundResult ModularBound(int n,
                                const std::vector<ConcreteStatistic>& stats) {
  assert(n >= 1 && n <= kMaxVars);
  LpProblem lp(n);
  for (int i = 0; i < n; ++i) lp.SetObjective(i, 1.0);
  for (const ConcreteStatistic& stat : stats) {
    const double inv_p = (stat.p >= kInfNorm / 2) ? 0.0 : 1.0 / stat.p;
    std::vector<LpTerm> terms;
    for (int i = 0; i < n; ++i) {
      double coef = 0.0;
      if (Contains(stat.sigma.u, i)) {
        coef = inv_p;
      } else if (Contains(stat.sigma.v, i)) {
        coef = 1.0;
      }
      if (coef != 0.0) terms.push_back({i, coef});
    }
    lp.AddConstraint(std::move(terms), LpSense::kLe, stat.log_b);
  }

  LpResult lp_result = SolveLp(lp);
  ModularBoundResult result;
  result.base = ResultFromLp(lp_result, stats.size());
  if (result.base.ok()) {
    result.var_weights = lp_result.x;
    result.base.h_opt = SetFunction::Modular(n, lp_result.x);
  }
  return result;
}

}  // namespace lpb
