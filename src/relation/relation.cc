#include "relation/relation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

namespace lpb {
namespace {

// Below this many rows a comparison sort of the words beats radix passes
// over 2^11-counter histograms.
constexpr size_t kRadixMinRows = 256;
// Widest radix digit: 2^11 counters per pass stay in L1.
constexpr int kMaxDigitBits = 11;

}  // namespace

// LSD radix sort with the fewest passes of at most kMaxDigitBits bits. One
// read pass fills all the passes' histograms, and a pass whose digit every
// word shares is skipped.
void RadixSort(std::vector<uint64_t>& words, int bits) {
  const size_t n = words.size();
  if (n < kRadixMinRows) {
    std::sort(words.begin(), words.end());
    return;
  }
  if (bits == 0) return;
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (bits + passes - 1) / passes;
  const size_t buckets = size_t{1} << digit_bits;
  const uint64_t mask = buckets - 1;
  std::vector<size_t> counts(passes * buckets, 0);
  for (const uint64_t w : words) {
    for (int p = 0; p < passes; ++p) {
      ++counts[p * buckets + ((w >> (p * digit_bits)) & mask)];
    }
  }
  std::vector<uint64_t> scratch(n);
  for (int p = 0; p < passes; ++p) {
    const int shift = p * digit_bits;
    size_t* offset = &counts[p * buckets];
    if (offset[(words[0] >> shift) & mask] == n) continue;
    size_t sum = 0;
    for (size_t b = 0; b < buckets; ++b) {
      const size_t count = offset[b];
      offset[b] = sum;
      sum += count;
    }
    for (const uint64_t w : words) scratch[offset[(w >> shift) & mask]++] = w;
    words.swap(scratch);
  }
}

Relation::Relation(std::string name, std::vector<std::string> attrs)
    : name_(std::move(name)), attrs_(std::move(attrs)) {
  cols_.resize(attrs_.size());
  max_.resize(attrs_.size(), 0);
}

int Relation::AttrIndex(const std::string& name) const {
  for (int i = 0; i < arity(); ++i) {
    if (attrs_[i] == name) return i;
  }
  return -1;
}

void Relation::AddRow(const std::vector<Value>& row) {
  assert(static_cast<int>(row.size()) == arity());
  for (int i = 0; i < arity(); ++i) {
    cols_[i].push_back(row[i]);
    max_[i] = std::max(max_[i], row[i]);
  }
  ++num_rows_;
}

void Relation::AddRow(std::initializer_list<Value> row) {
  assert(static_cast<int>(row.size()) == arity());
  int i = 0;
  for (Value v : row) {
    cols_[i].push_back(v);
    max_[i] = std::max(max_[i], v);
    ++i;
  }
  ++num_rows_;
}

void Relation::Reserve(size_t rows) {
  for (auto& c : cols_) c.reserve(rows);
}

bool Relation::RowsEqualOn(uint32_t a, uint32_t b,
                           const std::vector<int>& cols) const {
  for (int c : cols) {
    if (cols_[c][a] != cols_[c][b]) return false;
  }
  return true;
}

bool Relation::RowLessOn(uint32_t a, uint32_t b,
                         const std::vector<int>& cols) const {
  for (int c : cols) {
    if (cols_[c][a] != cols_[c][b]) return cols_[c][a] < cols_[c][b];
  }
  return false;
}

std::vector<uint32_t> Relation::SortedOrder(
    const std::vector<int>& cols) const {
  std::vector<uint32_t> order(num_rows_);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return RowLessOn(a, b, cols);
  });
  return order;
}

bool Relation::SortedPackedRows(const std::vector<int>& cols,
                                std::vector<uint64_t>& words,
                                std::vector<int>& widths) const {
  words.clear();
  widths.assign(cols.size(), 0);
  int bits = 0;
  for (size_t j = 0; j < cols.size(); ++j) {
    widths[j] = std::bit_width(max_[cols[j]]);
    bits += widths[j];
  }
  if (bits > 64) {
    widths.clear();
    return false;
  }
  // Column j sits above the columns after it. A zero-width column (all
  // zeros) is skipped, so every shift is below 64.
  words.assign(num_rows_, 0);
  int shift = bits;
  for (size_t j = 0; j < cols.size(); ++j) {
    shift -= widths[j];
    if (widths[j] == 0) continue;
    const std::vector<Value>& col = cols_[cols[j]];
    for (size_t r = 0; r < num_rows_; ++r) words[r] |= col[r] << shift;
  }
  RadixSort(words, bits);
  return true;
}

Relation Relation::Project(const std::vector<int>& cols) const {
  std::vector<std::string> names;
  names.reserve(cols.size());
  for (int c : cols) names.push_back(attrs_[c]);
  Relation out(name_, std::move(names));
  if (num_rows_ == 0) return out;
  std::vector<uint32_t> order = SortedOrder(cols);
  std::vector<Value> row(cols.size());
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0 && RowsEqualOn(order[i - 1], order[i], cols)) continue;
    for (size_t j = 0; j < cols.size(); ++j) row[j] = cols_[cols[j]][order[i]];
    out.AddRow(row);
  }
  return out;
}

void Relation::Deduplicate() {
  std::vector<int> all(arity());
  std::iota(all.begin(), all.end(), 0);
  Relation deduped = Project(all);
  cols_ = std::move(deduped.cols_);
  max_ = std::move(deduped.max_);
  num_rows_ = deduped.num_rows_;
}

}  // namespace lpb
