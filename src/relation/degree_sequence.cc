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

// Degrees of n >= 1 items sorted on U: same_u(i) says item i has the U
// value of item i-1, so each run of equal U values is one degree.
template <typename SameU>
std::vector<uint64_t> RunLengths(size_t n, SameU same_u) {
  std::vector<uint64_t> degrees;
  uint64_t current = 1;
  for (size_t i = 1; i < n; ++i) {
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

// Positions in `cols` of the columns of `u` (each must occur in `cols`),
// ascending and without repeats.
std::vector<size_t> PositionsOf(const std::vector<int>& cols,
                                const std::vector<int>& u) {
  std::vector<size_t> pos;
  pos.reserve(u.size());
  for (int c : u) {
    const auto it = std::find(cols.begin(), cols.end(), c);
    assert(it != cols.end());
    pos.push_back(static_cast<size_t>(it - cols.begin()));
  }
  std::sort(pos.begin(), pos.end());
  pos.erase(std::unique(pos.begin(), pos.end()), pos.end());
  return pos;
}

// True if positions `pos` (from PositionsOf) are the first |pos| of the
// sort order, so rows sorted on `cols` are already sorted on U.
bool LeadsSortOrder(const std::vector<size_t>& pos) {
  return pos.empty() || pos.back() + 1 == pos.size();
}

// deg(cols∖U | U) from the distinct packed words of Π_cols(R), sorted
// ascending; column j of `cols` sits at bit shift[j] in widths[j] bits.
std::vector<uint64_t> PackedDegrees(const std::vector<uint64_t>& distinct,
                                    const std::vector<int>& widths,
                                    const std::vector<int>& shift,
                                    const std::vector<size_t>& u_pos,
                                    std::vector<uint64_t>& scratch) {
  const size_t n = distinct.size();
  if (u_pos.empty()) return {n};
  if (LeadsSortOrder(u_pos)) {
    // U is the word shifted past the V bits, those below U's last column.
    // With 64 V bits every U column is zero, so all words share one U (and
    // the shift would be UB).
    const int v_bits = shift[u_pos.back()];
    const auto u_of = [v_bits](uint64_t w) {
      return v_bits == 64 ? uint64_t{0} : w >> v_bits;
    };
    return RunLengths(n, [&](size_t i) {
      return u_of(distinct[i]) == u_of(distinct[i - 1]);
    });
  }
  // Any other U: gather its columns' bits out of each word into one
  // bits(U)-bit value. Every field lands below bit 64, so no shift is UB.
  struct Field {
    int from;
    uint64_t mask;
    int to;
  };
  std::vector<Field> fields;
  int u_bits = 0;
  for (auto it = u_pos.rbegin(); it != u_pos.rend(); ++it) {
    const int width = widths[*it];
    if (width == 0) continue;
    fields.push_back({shift[*it],
                      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1,
                      u_bits});
    u_bits += width;
  }
  const auto u_of = [&fields](uint64_t w) {
    uint64_t u = 0;
    for (const Field& f : fields) u |= ((w >> f.from) & f.mask) << f.to;
    return u;
  };
  if (u_bits < 64 && (uint64_t{1} << u_bits) <= n) {
    // Few enough U values for a counting array no larger than the input.
    // On lpbench churn ~92% of the non-leading keys take this branch, and
    // churn runs ~1.4x faster (4-vCPU VM) than with them all radix-sorted.
    scratch.assign(size_t{1} << u_bits, 0);
    for (const uint64_t w : distinct) ++scratch[u_of(w)];
    std::vector<uint64_t> degrees;
    for (const uint64_t count : scratch) {
      if (count > 0) degrees.push_back(count);
    }
    return degrees;
  }
  scratch.resize(n);
  for (size_t i = 0; i < n; ++i) scratch[i] = u_of(distinct[i]);
  RadixSort(scratch, u_bits);
  return RunLengths(n, [&](size_t i) { return scratch[i] == scratch[i - 1]; });
}

}  // namespace

std::vector<DegreeSequence> ComputeDegreeSequences(
    const Relation& rel, const std::vector<int>& cols,
    const std::vector<std::vector<int>>& u_sets) {
  std::vector<DegreeSequence> out(u_sets.size());
  if (rel.NumRows() == 0) return out;

  std::vector<uint64_t> words;
  std::vector<int> widths;
  if (rel.SortedPackedRows(cols, words, widths)) {
    words.erase(std::unique(words.begin(), words.end()), words.end());
    std::vector<int> shift(cols.size());
    int bits = 0;
    for (size_t j = cols.size(); j-- > 0;) {
      shift[j] = bits;
      bits += widths[j];
    }
    std::vector<uint64_t> scratch;
    for (size_t k = 0; k < u_sets.size(); ++k) {
      out[k] = DegreeSequence(PackedDegrees(
          words, widths, shift, PositionsOf(cols, u_sets[k]), scratch));
    }
    return out;
  }

  // Wider than one word: a comparator sort of row ids, the same distinct
  // step, and per U a scan (U leads) or a comparator sort on U.
  std::vector<uint32_t> rows = rel.SortedOrder(cols);
  rows.erase(std::unique(rows.begin(), rows.end(),
                         [&](uint32_t a, uint32_t b) {
                           return rel.RowsEqualOn(a, b, cols);
                         }),
             rows.end());
  std::vector<uint32_t> by_u;
  for (size_t k = 0; k < u_sets.size(); ++k) {
    const std::vector<int>& u = u_sets[k];
    const std::vector<uint32_t>* sorted = &rows;
    if (!LeadsSortOrder(PositionsOf(cols, u))) {
      by_u = rows;
      std::sort(by_u.begin(), by_u.end(), [&](uint32_t a, uint32_t b) {
        return rel.RowLessOn(a, b, u);
      });
      sorted = &by_u;
    }
    const std::vector<uint32_t>& r = *sorted;
    out[k] = DegreeSequence(RunLengths(r.size(), [&](size_t i) {
      return rel.RowsEqualOn(r[i - 1], r[i], u);
    }));
  }
  return out;
}

DegreeSequence ComputeDegreeSequence(const Relation& rel,
                                     const std::vector<int>& u_cols,
                                     const std::vector<int>& v_cols) {
  std::vector<int> uv = u_cols;
  uv.insert(uv.end(), v_cols.begin(), v_cols.end());
  return std::move(ComputeDegreeSequences(rel, uv, {u_cols})[0]);
}

size_t DistinctCount(const Relation& rel, const std::vector<int>& cols) {
  return ComputeDegreeSequences(rel, cols, {{}})[0].Total();
}

}  // namespace lpb
