// The AGM bound computed directly as a fractional edge cover LP
// (Atserias-Grohe-Marx 2013): log2 AGM = min Σ_j x_j log2 |R_j| subject to
// Σ_{j : v ∈ atom_j} x_j >= 1 for every variable v, x >= 0.
//
// Equivalent to the polymatroid bound restricted to cardinality statistics;
// kept as an independent implementation for cross-validation and for the
// {1}-bound column of the paper's experiment tables.
#ifndef LPB_BOUNDS_AGM_H_
#define LPB_BOUNDS_AGM_H_

#include <vector>

#include "query/query.h"
#include "relation/catalog.h"

namespace lpb {

struct AgmResult {
  double log2_bound = 0.0;
  // Fractional edge-cover weight per atom.
  std::vector<double> cover;
};

// log2 cardinalities per atom (deduplicated projections onto atom vars).
std::vector<double> AtomLogSizes(const Query& query, const Catalog& catalog);

// AGM bound from explicit per-atom log2 sizes. A size of 0 (log2 -inf)
// yields the bound 0 and an empty cover.
AgmResult AgmBound(const Query& query, const std::vector<double>& log_sizes);

// AGM bound measured from a database instance.
AgmResult AgmBound(const Query& query, const Catalog& catalog);

}  // namespace lpb

#endif  // LPB_BOUNDS_AGM_H_
