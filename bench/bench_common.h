// Shared helpers for the paper-table benchmark binaries.
//
// Each bench binary first prints the paper's table (rows = ratios of each
// bound/estimate to the true cardinality, as in Appendix C) and then runs
// the google-benchmark timings registered in the same file.
#ifndef LPB_BENCH_BENCH_COMMON_H_
#define LPB_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bounds/bound_engine.h"
#include "relation/degree_sequence.h"
#include "stats/statistic.h"

namespace lpb {

// Ratio of a log2-bound to a true count, in linear space.
inline double Ratio(double log2_bound, uint64_t truth) {
  if (truth == 0) return std::numeric_limits<double>::infinity();
  return std::exp2(log2_bound - std::log2(static_cast<double>(truth)));
}

// "1.62e+00"-style rendering used in the paper's Figure 1.
inline std::string Sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2e", v);
  return buf;
}

// Distinct norm indices with nonzero dual weight — the "Norms" column of
// Figure 1.
inline std::string UsedNorms(const BoundResult& bound,
                             const std::vector<ConcreteStatistic>& stats) {
  std::vector<double> used;
  for (size_t i = 0; i < stats.size(); ++i) {
    if (i < bound.weights.size() && bound.weights[i] > 1e-6) {
      double p = stats[i].p;
      bool seen = false;
      for (double q : used) {
        if ((q >= kInfNorm / 2 && p >= kInfNorm / 2) ||
            std::abs(q - p) < 1e-9) {
          seen = true;
        }
      }
      if (!seen) used.push_back(p);
    }
  }
  std::sort(used.begin(), used.end());
  std::string out = "{";
  for (size_t i = 0; i < used.size(); ++i) {
    if (i) out += ",";
    if (used[i] >= kInfNorm / 2) {
      out += "inf";
    } else {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%g", used[i]);
      out += buf;
    }
  }
  return out + "}";
}

}  // namespace lpb

#endif  // LPB_BENCH_BENCH_COMMON_H_
