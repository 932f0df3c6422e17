#include "relation/degree_sequence.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

namespace lpb {

DegreeSequence::DegreeSequence(std::vector<uint64_t> degrees)
    : degrees_(std::move(degrees)) {
  uint64_t max = 0;
  for (const uint64_t d : degrees_) max = std::max(max, d);
  if (max > degrees_.size()) {
    std::sort(degrees_.begin(), degrees_.end(), std::greater<uint64_t>());
    while (!degrees_.empty() && degrees_.back() == 0) degrees_.pop_back();
    return;
  }
  // Degrees repeat a lot (a few dozen distinct values among tens of
  // thousands), so when the largest is no bigger than the count a counting
  // sort is linear.
  std::vector<size_t> count(max + 1, 0);
  for (const uint64_t d : degrees_) ++count[d];
  degrees_.clear();
  for (uint64_t d = max; d > 0; --d) {
    degrees_.insert(degrees_.end(), count[d], d);
  }
}

uint64_t DegreeSequence::Total() const {
  uint64_t total = 0;
  for (uint64_t d : degrees_) total += d;
  return total;
}

double DegreeSequence::NormP(double p) const {
  if (degrees_.empty()) return 0.0;
  return std::exp2(Log2NormP(p));
}

double DegreeSequence::Log2NormP(double p) const {
  assert(p > 0.0);
  if (degrees_.empty()) return -kInfNorm;
  if (p >= kInfNorm / 2) return std::log2(static_cast<double>(degrees_[0]));
  // log2 (sum_i d_i^p)^{1/p} via a base-2 log-sum-exp anchored at the max
  // term, so the result stays finite for large p (d^p overflows double for
  // p ~ 30 and d ~ 10^11). The sequence is sorted, so equal degrees are
  // adjacent: each run of them pays one exp2/log2, and its term is still
  // added once per entry in sequence order, which keeps the sum bitwise
  // equal to the per-entry formula.
  const double max_log = p * std::log2(static_cast<double>(degrees_[0]));
  double sum = 0.0;
  for (size_t i = 0; i < degrees_.size();) {
    const uint64_t d = degrees_[i];
    const double term =
        std::exp2(p * std::log2(static_cast<double>(d)) - max_log);
    for (; i < degrees_.size() && degrees_[i] == d; ++i) sum += term;
  }
  return (max_log + std::log2(sum)) / p;
}

bool DegreeSequence::DominatedBy(const DegreeSequence& other) const {
  if (degrees_.size() > other.degrees_.size()) return false;
  for (size_t i = 0; i < degrees_.size(); ++i) {
    if (degrees_[i] > other.degrees_[i]) return false;
  }
  return true;
}

namespace {

// Degrees from the (U ∪ V)-sorted rows 0..n-1: same_uv(i) says row i
// repeats row i-1 on U ∪ V (a duplicate edge), same_u(i) that it repeats
// it on U.
template <typename SameUv, typename SameU>
std::vector<uint64_t> ScanDegrees(size_t n, SameUv same_uv, SameU same_u) {
  std::vector<uint64_t> degrees;
  uint64_t current = 1;
  for (size_t i = 1; i < n; ++i) {
    if (same_uv(i)) continue;
    if (same_u(i)) {
      ++current;
    } else {
      degrees.push_back(current);
      current = 1;
    }
  }
  degrees.push_back(current);
  return degrees;
}

}  // namespace

DegreeSequence ComputeDegreeSequence(const Relation& rel,
                                     const std::vector<int>& u_cols,
                                     const std::vector<int>& v_cols) {
  const size_t n = rel.NumRows();
  if (n == 0) return DegreeSequence();

  std::vector<int> uv = u_cols;
  uv.insert(uv.end(), v_cols.begin(), v_cols.end());
  std::vector<uint64_t> words;
  std::vector<int> widths;
  if (rel.SortedPackedRows(uv, words, widths)) {
    // U is the word above its low v_bits bits. With 64 V bits every U
    // column is zero, so all rows share one U (and the shift would be UB).
    int v_bits = 0;
    for (size_t j = u_cols.size(); j < uv.size(); ++j) v_bits += widths[j];
    const auto u_of = [v_bits](uint64_t w) {
      return v_bits == 64 ? uint64_t{0} : w >> v_bits;
    };
    return DegreeSequence(ScanDegrees(
        n, [&](size_t i) { return words[i] == words[i - 1]; },
        [&](size_t i) { return u_of(words[i]) == u_of(words[i - 1]); }));
  }

  // Wider than one word: comparator sort of row ids.
  const std::vector<uint32_t> order = rel.SortedOrder(uv);
  return DegreeSequence(ScanDegrees(
      n,
      [&](size_t i) { return rel.RowsEqualOn(order[i - 1], order[i], uv); },
      [&](size_t i) {
        return rel.RowsEqualOn(order[i - 1], order[i], u_cols);
      }));
}

}  // namespace lpb
