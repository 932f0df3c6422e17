#include "entropy/relation_entropy.h"

#include <cassert>
#include <cmath>
#include <vector>

#include "relation/degree_sequence.h"

namespace lpb {
namespace {

// deg(rest | s) for every non-empty column subset s of `rel`, at index
// s - 1, from one ComputeDegreeSequences call (which counts duplicate rows
// once): entry s - 1 holds the size of each group of distinct rows sharing
// a projection on s, and its size() is |Π_s(rel)|.
std::vector<DegreeSequence> GroupSizes(const Relation& rel) {
  const VarSet full = FullSet(rel.arity());
  std::vector<int> cols;
  for (int c : VarRange(full)) cols.push_back(c);
  std::vector<std::vector<int>> u_sets(full);
  for (VarSet s = 1; s <= full; ++s) {
    for (int c : VarRange(s)) u_sets[s - 1].push_back(c);
  }
  return ComputeDegreeSequences(rel, cols, u_sets);
}

// Uniform distribution over the N distinct rows: a group of c rows sharing
// the same projection has marginal probability c / N, contributing
// -(c/N) log2(c/N).
SetFunction EntropyOfGroups(int arity,
                            const std::vector<DegreeSequence>& groups) {
  SetFunction h(arity);
  const VarSet full = FullSet(arity);
  const double num_rows = static_cast<double>(groups[full - 1].size());
  for (VarSet s = 1; s <= full; ++s) {
    double entropy = 0.0;
    for (uint64_t c : groups[s - 1].degrees()) {
      const double p = static_cast<double>(c) / num_rows;
      entropy -= p * std::log2(p);
    }
    h[s] = entropy;
  }
  return h;
}

}  // namespace

SetFunction EntropyOfRelation(const Relation& rel) {
  assert(rel.arity() <= kMaxVars);
  if (rel.NumRows() == 0 || rel.arity() == 0) return SetFunction(rel.arity());
  return EntropyOfGroups(rel.arity(), GroupSizes(rel));
}

bool IsTotallyUniform(const Relation& rel, double eps) {
  if (rel.NumRows() == 0 || rel.arity() == 0) return true;
  const std::vector<DegreeSequence> groups = GroupSizes(rel);
  const SetFunction h = EntropyOfGroups(rel.arity(), groups);
  for (VarSet s = 1; s <= FullSet(rel.arity()); ++s) {
    const double log_proj =
        std::log2(static_cast<double>(groups[s - 1].size()));
    if (std::abs(log_proj - h[s]) > eps) return false;
  }
  return true;
}

}  // namespace lpb
