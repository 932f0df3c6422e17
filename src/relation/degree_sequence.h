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

// Computes deg_R(cols∖U | U) for every U in `u_sets`, aligned with it.
// `cols` lists column indices of `rel`, and each U is a subset of them;
// U = ∅ gives the single-element sequence (|Π_cols(R)|).
// Duplicate rows of Π_cols(R) are counted once.
//
// Algorithm: every statistic of one column set counts the same distinct
// rows of Π_cols(R), so the call sorts them once. Each column's bit width
// is that of its maximum value. When the widths sum to at most 64 bits,
// every row is packed into one word, cols[0] highest
// (Relation::SortedPackedRows), the words are LSD-radix-sorted over the
// used bits only, and equal words (duplicate rows) are dropped. Then, per U:
//   U = ∅        -> the distinct count;
//   U leads cols -> one run-length scan on the word's high bits;
//   any other U  -> U's bits are gathered out of each distinct word and
//                   counted per value: in a counting array when 2^bits(U)
//                   is at most the distinct count (so scratch stays within
//                   the input's size), else after a RadixSort of the
//                   gathered values.
// Wider keys fall back to a comparator sort of row ids
// (Relation::SortedOrder) with the same distinct step, and per U a scan
// when U leads, else a comparator sort of the distinct rows on U. Every
// path yields the same degree multiset, which DegreeSequence sorts into the
// same vector; the choice depends only on the data. Scratch memory is per
// call, so concurrent calls are safe.
std::vector<DegreeSequence> ComputeDegreeSequences(
    const Relation& rel, const std::vector<int>& cols,
    const std::vector<std::vector<int>>& u_sets);

// deg_R(V|U) for column lists u_cols and v_cols (disjoint): the one-key
// call of ComputeDegreeSequences, with cols = U then V, so U leads.
// With u_cols empty the result is the single-element sequence (|Π_V(R)|);
// duplicate (u,v) pairs in R are counted once.
DegreeSequence ComputeDegreeSequence(const Relation& rel,
                                     const std::vector<int>& u_cols,
                                     const std::vector<int>& v_cols);

// |Π_cols(R)|, the number of distinct rows of the given column tuple: the
// U = ∅ call of ComputeDegreeSequences.
size_t DistinctCount(const Relation& rel, const std::vector<int>& cols);

}  // namespace lpb

#endif  // LPB_RELATION_DEGREE_SEQUENCE_H_
