// Degree sequences and their ℓp-norms (Sec 1.2 of the paper).
//
// For a relation R and attribute sets U, V, deg_R(V|U) is the sorted list of
// out-degrees of the U-side nodes in the bipartite graph whose edges are the
// distinct (u, v) pairs of Π_{U∪V}(R). The ℓp-norm of that sequence is the
// statistic the paper's bounds consume:
//   p = 1  -> |Π_{U∪V}(R)|   (a cardinality assertion)
//   p = ∞  -> max degree     (PANDA's statistic)
//   other p -> genuinely new statistics enabled by this paper.
#ifndef LPB_RELATION_DEGREE_SEQUENCE_H_
#define LPB_RELATION_DEGREE_SEQUENCE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "relation/relation.h"

namespace lpb {

// Sentinel for the ℓ∞ norm; any p >= kInfinity/2 is treated as infinity.
inline constexpr double kInfNorm = std::numeric_limits<double>::infinity();

// A degree sequence d_1 >= d_2 >= ... >= d_m > 0.
class DegreeSequence {
 public:
  DegreeSequence() = default;
  // Sorts `degrees` in non-increasing order; zero entries are dropped. A
  // counting sort when the largest degree is at most the entry count.
  explicit DegreeSequence(std::vector<uint64_t> degrees);

  const std::vector<uint64_t>& degrees() const { return degrees_; }
  size_t size() const { return degrees_.size(); }
  bool empty() const { return degrees_.empty(); }
  uint64_t MaxDegree() const { return degrees_.empty() ? 0 : degrees_[0]; }

  // Sum of all degrees (the ℓ1 norm; number of bipartite edges).
  uint64_t Total() const;

  // ||d||_p, p in (0, ∞]. For p = kInfNorm returns the max degree.
  double NormP(double p) const;

  // log2 ||d||_p, computed in log space for numerical robustness with
  // large p. Returns -inf for an empty sequence. Costs one exp2/log2 per
  // run of equal degrees (a few dozen on real data) plus one addition per
  // entry; the sum is bitwise that of the one-term-per-entry formula.
  double Log2NormP(double p) const;

  // True if every prefix satisfies d_i <= other.d_i (with missing entries
  // treated as 0) — the dominance order used by the Degree Sequence Bound.
  bool DominatedBy(const DegreeSequence& other) const;

 private:
  std::vector<uint64_t> degrees_;
};

// Computes deg_R(V|U) where u_cols/v_cols are column indices into `rel`
// (disjoint). With u_cols empty the result is the single-element sequence
// (|Π_V(R)|); duplicate (u,v) pairs in R are counted once.
//
// Algorithm: each column's bit width is that of its maximum value. When the
// U ∪ V widths sum to at most 64 bits, every row is packed into one word,
// U above V (Relation::SortedPackedRows), and the words are LSD-radix-sorted
// over the used bits only. One linear scan then skips equal words
// (duplicate edges) and groups on the U part, word >> (V bits). Wider keys
// fall back to a comparator sort of row ids (Relation::SortedOrder) and the
// same scan. Both paths give the same sequence; the choice depends only on
// the data. Scratch memory is per call, so concurrent calls are safe.
DegreeSequence ComputeDegreeSequence(const Relation& rel,
                                     const std::vector<int>& u_cols,
                                     const std::vector<int>& v_cols);

}  // namespace lpb

#endif  // LPB_RELATION_DEGREE_SEQUENCE_H_
