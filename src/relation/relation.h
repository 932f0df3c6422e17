// In-memory column-store relations over unsigned 64-bit values.
//
// This is the relational substrate for the whole library: statistics are
// collected from Relation instances, queries are evaluated against them,
// and the data generators produce them. Values are opaque uint64_t ids
// (dictionary encoding of real data is out of scope for the paper's
// experiments, which are all over integer keys).
#ifndef LPB_RELATION_RELATION_H_
#define LPB_RELATION_RELATION_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace lpb {

using Value = uint64_t;

// Sorts `words` ascending; every word must be below 2^bits (bits <= 64).
// An LSD radix sort over the used bits only (a comparison sort below a few
// hundred words).
void RadixSort(std::vector<uint64_t>& words, int bits);

class Relation {
 public:
  Relation() = default;
  // Creates an empty relation with the given attribute names.
  Relation(std::string name, std::vector<std::string> attrs);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  int arity() const { return static_cast<int>(attrs_.size()); }
  size_t NumRows() const { return num_rows_; }
  const std::vector<std::string>& attrs() const { return attrs_; }
  const std::string& attr(int i) const { return attrs_[i]; }

  // Index of the attribute with the given name, or -1.
  int AttrIndex(const std::string& name) const;

  // Appends one row; `row` must have `arity()` values.
  void AddRow(const std::vector<Value>& row);
  void AddRow(std::initializer_list<Value> row);
  void Reserve(size_t rows);

  Value At(size_t row, int col) const { return cols_[col][row]; }
  const std::vector<Value>& Column(int col) const { return cols_[col]; }

  // Row indices sorted lexicographically by the given columns.
  std::vector<uint32_t> SortedOrder(const std::vector<int>& cols) const;

  // The rows projected onto `cols`, packed one row per word and sorted:
  // cols[0] in the highest bits, cols.back() in the lowest, each column in
  // the bit width of its maximum value (written to `widths`, aligned with
  // `cols`). Ascending word order is the lexicographic row order of
  // SortedOrder(cols), and equal words are equal rows. Sorting is an LSD
  // radix sort over the used bits only. Returns false, with both outputs
  // empty, when the widths sum to more than 64 bits; callers then fall back
  // to SortedOrder.
  bool SortedPackedRows(const std::vector<int>& cols,
                        std::vector<uint64_t>& words,
                        std::vector<int>& widths) const;

  // Distinct projection onto the given columns, as a new relation whose
  // attribute names are those of the projected columns.
  Relation Project(const std::vector<int>& cols) const;

  // Removes duplicate rows (full-row distinct).
  void Deduplicate();

  // True if rows a and b agree on the given columns.
  bool RowsEqualOn(uint32_t a, uint32_t b, const std::vector<int>& cols) const;

  // Lexicographic comparison of rows a and b on the given columns.
  bool RowLessOn(uint32_t a, uint32_t b, const std::vector<int>& cols) const;

 private:
  std::string name_;
  std::vector<std::string> attrs_;
  std::vector<std::vector<Value>> cols_;
  std::vector<Value> max_;  // largest value per column, kept by AddRow
  size_t num_rows_ = 0;
};

}  // namespace lpb

#endif  // LPB_RELATION_RELATION_H_
