#include "entropy/relation_entropy.h"

#include <cassert>
#include <cmath>
#include <vector>

#include "relation/degree_sequence.h"

namespace lpb {

SetFunction EntropyOfRelation(const Relation& rel) {
  const int a = rel.arity();
  assert(a <= kMaxVars);
  Relation dedup = rel;
  dedup.Deduplicate();
  const double num_rows = static_cast<double>(dedup.NumRows());

  SetFunction h(a);
  if (dedup.NumRows() == 0) return h;
  const VarSet full = FullSet(a);
  for (VarSet s = 1; s <= full; ++s) {
    std::vector<int> cols;
    for (int c : VarRange(s)) cols.push_back(c);
    std::vector<uint32_t> order = dedup.SortedOrder(cols);
    // Uniform distribution over rows: a group of c rows sharing the same
    // projection has marginal probability c / N, contributing
    // -(c/N) log2(c/N).
    double entropy = 0.0;
    size_t group = 1;
    for (size_t i = 1; i <= order.size(); ++i) {
      if (i < order.size() && dedup.RowsEqualOn(order[i - 1], order[i], cols)) {
        ++group;
        continue;
      }
      const double p = static_cast<double>(group) / num_rows;
      entropy -= p * std::log2(p);
      group = 1;
    }
    h[s] = entropy;
  }
  return h;
}

bool IsTotallyUniform(const Relation& rel, double eps) {
  Relation dedup = rel;
  dedup.Deduplicate();
  if (dedup.NumRows() == 0) return true;
  SetFunction h = EntropyOfRelation(dedup);
  const VarSet full = FullSet(dedup.arity());
  for (VarSet s = 1; s <= full; ++s) {
    std::vector<int> cols;
    for (int c : VarRange(s)) cols.push_back(c);
    const double log_proj =
        std::log2(static_cast<double>(DistinctCount(dedup, cols)));
    if (std::abs(log_proj - h[s]) > eps) return false;
  }
  return true;
}

}  // namespace lpb
