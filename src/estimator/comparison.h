// One-call comparison facade: runs every estimator / bound in the library
// on a query and reports them side by side (the rows of the paper's
// experiment tables). tests/test_accuracy.cc runs every row of its
// accuracy regime through it, examples/csv_estimator.cpp prints it, and it
// is handy as a debugging dashboard for users.
#ifndef LPB_ESTIMATOR_COMPARISON_H_
#define LPB_ESTIMATOR_COMPARISON_H_

#include <string>
#include <vector>

#include "query/query.h"
#include "relation/catalog.h"
#include "relation/degree_sequence.h"

namespace lpb {

struct EstimateReport {
  std::string name;       // "AGM {1}", "lp {1..5,inf}", "traditional", ...
  double log2_value = 0;  // log2 of the bound / estimate
  bool is_upper_bound = false;  // true for provable bounds
};

struct ComparisonOptions {
  // Norms for the full ℓp bound.
  std::vector<double> norms = {1.0, 2.0, 3.0, 4.0, kInfNorm};
  // Also compute the true cardinality (can be expensive); reported under
  // the name "true".
  bool include_truth = true;
};

// Runs: true cardinality (optional), AGM, PANDA, full ℓp bound,
// traditional estimate, and — for two-atom queries joining on one variable
// — the DSB. Bounds are computed from statistics collected on the fly.
std::vector<EstimateReport> CompareEstimators(
    const Query& query, const Catalog& catalog,
    const ComparisonOptions& options = {});

// Pretty-prints a report table to a string.
std::string FormatComparison(const std::vector<EstimateReport>& reports);

}  // namespace lpb

#endif  // LPB_ESTIMATOR_COMPARISON_H_
