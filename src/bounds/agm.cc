#include "bounds/agm.h"

#include <cassert>

#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "relation/degree_sequence.h"
#include "stats/collector.h"

namespace lpb {

std::vector<double> AtomLogSizes(const Query& query, const Catalog& catalog) {
  std::vector<double> log_sizes;
  log_sizes.reserve(query.num_atoms());
  for (int a = 0; a < query.num_atoms(); ++a) {
    log_sizes.push_back(MeasureLog2Norm(
        query, a, catalog, Conditional{0, query.atom(a).var_set()}, 1.0));
  }
  return log_sizes;
}

AgmResult AgmBound(const Query& query, const std::vector<double>& log_sizes) {
  const int m = query.num_atoms();
  assert(static_cast<int>(log_sizes.size()) == m);
  // An empty relation (log size -inf) empties the output, and the cover LP
  // cannot take an infinite cost. Answer as the bound engines answer
  // infeasible statistics: log2 1 = 0, with no cover.
  for (double log_size : log_sizes) {
    if (log_size == -kInfNorm) return AgmResult();
  }
  // minimize Σ x_j log|R_j|  ==  maximize Σ x_j (-log|R_j|).
  LpProblem lp(m);
  for (int j = 0; j < m; ++j) lp.SetObjective(j, -log_sizes[j]);
  for (int v = 0; v < query.num_vars(); ++v) {
    std::vector<LpTerm> terms;
    for (int j = 0; j < m; ++j) {
      if (Contains(query.atom(j).var_set(), v)) terms.push_back({j, 1.0});
    }
    lp.AddConstraint(std::move(terms), LpSense::kGe, 1.0);
  }
  LpResult res = SolveLp(lp);
  assert(res.status == LpStatus::kOptimal);
  AgmResult out;
  out.log2_bound = -res.objective;
  out.cover = res.x;
  return out;
}

AgmResult AgmBound(const Query& query, const Catalog& catalog) {
  return AgmBound(query, AtomLogSizes(query, catalog));
}

}  // namespace lpb
