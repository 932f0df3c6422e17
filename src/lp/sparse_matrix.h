// Column-major (CSC) sparse matrix storage for the revised simplex.
//
// The normalized constraint matrices of the bound LPs are extremely sparse:
// a statistic row touches a handful of the 2^n - 1 entropy variables, a
// Shannon cut touches at most four, and the slack/surplus/artificial block
// is unit columns. Storing columns sparsely is what turns a simplex
// iteration from a rows x cols tableau sweep into a few O(nnz) solves —
// the whole premise of lp/revised_simplex.h.
//
// The matrix is append-only: columns are added once at Build time and never
// modified (the revised simplex never rewrites A; all state lives in the
// basis factorization). Entries within a column are kept sorted by row and
// coalesced: repeated terms of a constraint add up ("+=" assembly).
#ifndef LPB_LP_SPARSE_MATRIX_H_
#define LPB_LP_SPARSE_MATRIX_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace lpb {

// One nonzero entry of a sparse column.
struct SparseEntry {
  int row = 0;
  double value = 0.0;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;
  explicit SparseMatrix(int rows) : rows_(rows) {}

  int rows() const { return rows_; }
  int cols() const { return static_cast<int>(col_start_.size()) - 1; }
  size_t nnz() const { return entries_.size(); }

  // Appends a column and returns its index. Entries are sorted by row,
  // duplicate rows are summed, and exact zeros are dropped.
  int AppendColumn(std::vector<SparseEntry> entries);

  // Grows the matrix by `new_rows` rows, scattering `row_entries[k]` — the
  // (column, value) nonzeros of appended row rows() + k over the *existing*
  // columns — into the CSC arrays (one O(nnz) rebuild of the flat entry
  // vector, not per-entry insertion). Values for a repeated column are
  // summed and exact zeros dropped, matching AppendColumn. New columns for
  // the appended rows' slacks are added afterwards by the caller via
  // AppendColumn. This is the warm cut-append path of lp/revised_simplex.h;
  // the matrix is otherwise append-only (see the header comment).
  void AppendRows(
      int new_rows,
      const std::vector<std::vector<std::pair<int, double>>>& row_entries);

  // [begin, end) of column j's entries.
  const SparseEntry* ColBegin(int j) const {
    return entries_.data() + col_start_[j];
  }
  const SparseEntry* ColEnd(int j) const {
    return entries_.data() + col_start_[j + 1];
  }
  int ColNnz(int j) const { return col_start_[j + 1] - col_start_[j]; }

  // x' A[:, j] — the per-column work of revised-simplex pricing. Templated
  // so the revised simplex can accumulate in long double (its working
  // precision; see lp/revised_simplex.h) against double matrix entries.
  template <typename T>
  T DotColumn(int j, const std::vector<T>& x) const {
    T dot = 0.0;
    for (const SparseEntry* e = ColBegin(j); e != ColEnd(j); ++e) {
      dot += x[e->row] * e->value;
    }
    return dot;
  }

 private:
  int rows_ = 0;
  std::vector<int> col_start_{0};
  std::vector<SparseEntry> entries_;
};

}  // namespace lpb

#endif  // LPB_LP_SPARSE_MATRIX_H_
