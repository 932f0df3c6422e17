#include "estimator/traditional.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "relation/degree_sequence.h"

namespace lpb {

double TraditionalEstimateLog2(const Query& query, const Catalog& catalog) {
  double log_est = 0.0;
  for (const Atom& atom : query.atoms()) {
    const Relation& rel = catalog.Get(atom.relation);
    if (rel.NumRows() == 0) return -std::numeric_limits<double>::infinity();
    log_est += std::log2(static_cast<double>(rel.NumRows()));
  }
  for (int v = 0; v < query.num_vars(); ++v) {
    std::vector<double> distinct;
    for (const Atom& atom : query.atoms()) {
      if (!Contains(atom.var_set(), v)) continue;
      const Relation& rel = catalog.Get(atom.relation);
      // First column bound to v (self-loop atoms use the first occurrence).
      for (size_t j = 0; j < atom.vars.size(); ++j) {
        if (atom.vars[j] == v) {
          distinct.push_back(static_cast<double>(
              DistinctCount(rel, {static_cast<int>(j)})));
          break;
        }
      }
    }
    if (distinct.size() < 2) continue;
    // Divide by every distinct count except the smallest.
    std::sort(distinct.begin(), distinct.end());
    for (size_t i = 1; i < distinct.size(); ++i) {
      if (distinct[i] > 0) log_est -= std::log2(distinct[i]);
    }
  }
  return log_est;
}

double TraditionalEstimate(const Query& query, const Catalog& catalog) {
  return std::exp2(TraditionalEstimateLog2(query, catalog));
}

}  // namespace lpb
