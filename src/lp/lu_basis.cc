#include "lp/lu_basis.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "lp/kernels.h"

namespace lpb {

LuBasis::LuBasis(LuOptions options) : options_(options) {
  max_updates_ = options_.max_updates > 0 ? options_.max_updates : 64;
}

bool LuBasis::Factorize(const SparseMatrix& a, const std::vector<int>& basis) {
  m_ = static_cast<int>(basis.size());
  factorized_ = false;
  updates_ = 0;
  ft_etas_.clear();
  u_nnz_ = 0;
  transform_nnz_ = 0;
  pivot_row_.assign(m_, -1);
  row_pos_.assign(m_, -1);
  col_slot_.assign(m_, -1);
  slot_pos_.assign(m_, -1);
  l_cols_.assign(m_, {});
  l_pivot_row_.assign(m_, -1);
  u_cols_.assign(m_, {});
  diag_.assign(m_, 0.0);
  work_.assign(m_, 0.0);
  pos_work_.assign(m_, 0.0);
  spike_.assign(m_, 0.0);
  mu_work_.assign(m_, 0.0);
  visited_.assign(m_, 0);
  row_mark_.assign(m_, -1);

  // Static Markowitz row degrees: nonzeros per row across the basis
  // columns. A dynamic count over the active submatrix would be tighter
  // but needs linked row/column structures; the static count already
  // steers pivots away from dense rows, which is what keeps fill low on
  // the bound LPs.
  std::vector<int> row_degree(m_, 0);
  for (int s = 0; s < m_; ++s) {
    for (const SparseEntry* e = a.ColBegin(basis[s]); e != a.ColEnd(basis[s]);
         ++e) {
      ++row_degree[e->row];
    }
  }

  // Markowitz-style column pre-ordering: factor sparse columns first, so
  // the unit slack/artificial columns of a fresh basis contribute zero
  // fill before any structural column is touched.
  std::vector<int> order(m_);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
    return a.ColNnz(basis[x]) < a.ColNnz(basis[y]);
  });

  // DFS over the partially built L: edge t -> row_pos_[row] for every
  // pivotal row of l_cols_[t]. Reverse post-order is a topological order,
  // so processing topo_ back-to-front applies updates before reads.
  auto dfs = [&](int root) {
    if (visited_[root]) return;
    dfs_stack_.clear();
    dfs_stack_.emplace_back(root, 0);
    visited_[root] = 1;
    while (!dfs_stack_.empty()) {
      const int t = dfs_stack_.back().first;
      int& edge = dfs_stack_.back().second;
      const std::vector<LuEntry>& lcol = l_cols_[t];
      bool descended = false;
      while (edge < static_cast<int>(lcol.size())) {
        const int pos = row_pos_[lcol[edge].row];
        ++edge;
        if (pos >= 0 && !visited_[pos]) {
          visited_[pos] = 1;
          dfs_stack_.emplace_back(pos, 0);
          descended = true;
          break;
        }
      }
      if (!descended) {
        topo_.push_back(t);
        dfs_stack_.pop_back();
      }
    }
  };

  auto add_candidate = [&](int row, int stamp) {
    if (row_mark_[row] != stamp) {
      row_mark_[row] = stamp;
      cand_.push_back(row);
    }
  };

  for (int k = 0; k < m_; ++k) {
    const int slot = order[k];
    const int col = basis[slot];
    topo_.clear();
    cand_.clear();

    // Reach + scatter of the column to factor.
    for (const SparseEntry* e = a.ColBegin(col); e != a.ColEnd(col); ++e) {
      if (row_pos_[e->row] >= 0) {
        dfs(row_pos_[e->row]);
      } else {
        add_candidate(e->row, k);
      }
    }
    for (const SparseEntry* e = a.ColBegin(col); e != a.ColEnd(col); ++e) {
      work_[e->row] += e->value;
    }

    // Sparse triangular solve x = L⁻¹ (P b), visiting only reached
    // positions; fill lands on non-pivotal rows and joins the pivot
    // candidates.
    for (size_t idx = topo_.size(); idx-- > 0;) {
      const int t = topo_[idx];
      const Scalar xt = work_[pivot_row_[t]];
      if (xt == 0.0) continue;
      for (const LuEntry& e : l_cols_[t]) {
        if (row_pos_[e.row] < 0) add_candidate(e.row, k);
        work_[e.row] -= e.value * xt;
      }
    }

    // Markowitz threshold pivoting over the non-pivotal candidates.
    Scalar max_abs = 0.0;
    for (int row : cand_) {
      max_abs = std::max(max_abs, std::abs(work_[row]));
    }
    if (max_abs < options_.abs_pivot_tol) {
      // Numerically singular basis: clean scratch state and bail.
      for (int row : cand_) work_[row] = 0.0;
      for (int t : topo_) {
        work_[pivot_row_[t]] = 0.0;
        visited_[t] = 0;
      }
      return false;
    }
    int pivot = -1;
    for (int row : cand_) {
      if (std::abs(work_[row]) < options_.rel_pivot_tol * max_abs) continue;
      if (pivot == -1 || row_degree[row] < row_degree[pivot] ||
          (row_degree[row] == row_degree[pivot] &&
           std::abs(work_[row]) > std::abs(work_[pivot]))) {
        pivot = row;
      }
    }

    pivot_row_[k] = pivot;
    row_pos_[pivot] = k;
    col_slot_[k] = slot;
    slot_pos_[slot] = k;
    l_pivot_row_[k] = pivot;
    diag_[slot] = work_[pivot];
    for (int t : topo_) {
      const Scalar v = work_[pivot_row_[t]];
      if (v != 0.0) u_cols_[slot].push_back({pivot_row_[t], v});
      work_[pivot_row_[t]] = 0.0;
      visited_[t] = 0;
    }
    u_nnz_ += static_cast<int64_t>(u_cols_[slot].size());
    const Scalar inv = 1.0L / diag_[slot];
    for (int row : cand_) {
      if (row != pivot && work_[row] != 0.0) {
        l_cols_[k].push_back({row, work_[row] * inv});
      }
      work_[row] = 0.0;
    }
  }

  u_nnz0_ = u_nnz_;
  factorized_ = true;
  return true;
}

void LuBasis::Ftran(std::vector<Scalar>& x,
                    std::vector<Scalar>* spike_out) const {
  // Forward solve with L — a fixed product of column transforms, applied
  // in factorization order regardless of any later position rotation.
  for (int k = 0; k < m_; ++k) {
    const Scalar xt = x[l_pivot_row_[k]];
    if (xt == 0.0) continue;
    for (const LuEntry& e : l_cols_[k]) x[e.row] -= e.value * xt;
  }
  // Forrest–Tomlin row transforms, oldest first: x[ρ] -= μ·x.
  for (const FtEta& eta : ft_etas_) {
    Scalar acc = 0.0;
    for (const LuEntry& e : eta.mu) acc += e.value * x[e.row];
    x[eta.row] -= acc;
  }
  if (spike_out != nullptr) *spike_out = x;
  // Backward solve with U in position order; the result lands per slot.
  for (int k = m_; k-- > 0;) {
    const int slot = col_slot_[k];
    const Scalar zk = x[pivot_row_[k]] / diag_[slot];
    pos_work_[slot] = zk;
    if (zk == 0.0) continue;
    for (const LuEntry& e : u_cols_[slot]) x[e.row] -= e.value * zk;
  }
  for (int i = 0; i < m_; ++i) x[i] = pos_work_[i];
}

void LuBasis::FtranBlock(Scalar* x, int lanes) const {
  LpKernelTimer timer(kLpKernelFtranBlock);
  // Mirrors Ftran pass for pass; every lane's own arithmetic sequence —
  // including the skip-on-exact-zero guards, which also preserve signed
  // zeros — is identical to a solo Ftran of that lane. Only the entry
  // metadata traversal is shared across lanes.
  for (int k = 0; k < m_; ++k) {
    const Scalar* xt = x + static_cast<std::size_t>(l_pivot_row_[k]) * lanes;
    for (const LuEntry& e : l_cols_[k]) {
      Scalar* xr = x + static_cast<std::size_t>(e.row) * lanes;
      for (int l = 0; l < lanes; ++l) {
        const Scalar v = xt[l];
        if (v == 0.0) continue;
        xr[l] -= e.value * v;
      }
    }
  }
  for (const FtEta& eta : ft_etas_) {
    Scalar acc[kMaxFtranBlockLanes] = {};
    for (const LuEntry& e : eta.mu) {
      const Scalar* xr = x + static_cast<std::size_t>(e.row) * lanes;
      for (int l = 0; l < lanes; ++l) acc[l] += e.value * xr[l];
    }
    Scalar* xrho = x + static_cast<std::size_t>(eta.row) * lanes;
    for (int l = 0; l < lanes; ++l) xrho[l] -= acc[l];
  }
  block_pos_work_.resize(static_cast<std::size_t>(m_) * lanes);
  for (int k = m_; k-- > 0;) {
    const int slot = col_slot_[k];
    const Scalar* xp = x + static_cast<std::size_t>(pivot_row_[k]) * lanes;
    Scalar* pw = block_pos_work_.data() + static_cast<std::size_t>(slot) * lanes;
    for (int l = 0; l < lanes; ++l) pw[l] = xp[l] / diag_[slot];
    for (const LuEntry& e : u_cols_[slot]) {
      Scalar* xr = x + static_cast<std::size_t>(e.row) * lanes;
      for (int l = 0; l < lanes; ++l) {
        const Scalar zk = pw[l];
        if (zk == 0.0) continue;
        xr[l] -= e.value * zk;
      }
    }
  }
  std::copy(block_pos_work_.begin(),
            block_pos_work_.begin() + static_cast<std::size_t>(m_) * lanes, x);
}

void LuBasis::Btran(std::vector<Scalar>& y) const {
  // Forward solve with Uᵀ in position order; the result lands per row.
  for (int k = 0; k < m_; ++k) {
    const int slot = col_slot_[k];
    Scalar s = y[slot];
    for (const LuEntry& e : u_cols_[slot]) s -= e.value * work_[e.row];
    work_[pivot_row_[k]] = s / diag_[slot];
  }
  // Forrest–Tomlin transforms transposed, newest first: y -= μ y[ρ].
  for (size_t idx = ft_etas_.size(); idx-- > 0;) {
    const FtEta& eta = ft_etas_[idx];
    const Scalar t = work_[eta.row];
    if (t == 0.0) continue;
    for (const LuEntry& e : eta.mu) work_[e.row] -= e.value * t;
  }
  // Backward solve with Lᵀ in reverse factorization order (rows referenced
  // by l_cols_[k] are pivotal later in the L sequence, already final).
  for (int k = m_; k-- > 0;) {
    Scalar s = work_[l_pivot_row_[k]];
    for (const LuEntry& e : l_cols_[k]) s -= e.value * work_[e.row];
    work_[l_pivot_row_[k]] = s;
  }
  for (int i = 0; i < m_; ++i) y[i] = work_[i];
}

bool LuBasis::AppendBorderedRows(const SparseMatrix& a,
                                 const std::vector<int>& basis,
                                 int first_new_row) {
  const int new_m = static_cast<int>(basis.size());
  const int k_new = new_m - m_;
  if (!factorized_ || first_new_row != m_ || k_new <= 0 ||
      a.rows() != new_m) {
    return false;
  }

  // Validate the appended slots before mutating anything: each must be a
  // unit column on exactly one new row (that row's slack), diagonals
  // pivotable, rows covered exactly once.
  std::vector<Scalar> new_diag(k_new, 0.0);
  std::vector<int> new_row_of_slot(k_new, -1);
  std::vector<char> row_seen(k_new, 0);
  for (int s = m_; s < new_m; ++s) {
    const int col = basis[s];
    if (col < 0 || col >= a.cols() || a.ColNnz(col) != 1) return false;
    const SparseEntry& e = *a.ColBegin(col);
    if (e.row < first_new_row || e.row >= new_m) return false;
    if (row_seen[e.row - first_new_row]) return false;
    if (std::abs(e.value) < options_.abs_pivot_tol) return false;
    row_seen[e.row - first_new_row] = 1;
    new_row_of_slot[s - m_] = e.row;
    new_diag[s - m_] = e.value;
  }

  // The new rows take the *leading* positions: their U columns are pure
  // diagonals, so every old column's new-row entry references an
  // earlier-in-position row and U stays triangular. The L pass, the FT
  // transforms, and the Lᵀ/μᵀ passes of Btran only touch old rows, so the
  // border block C passes through them untouched — appending the raw
  // A-entries at new rows to the old slots' stored U columns is exact even
  // mid-update-chain.
  pivot_row_.insert(pivot_row_.begin(), new_row_of_slot.begin(),
                    new_row_of_slot.end());
  col_slot_.insert(col_slot_.begin(), k_new, -1);
  for (int k = 0; k < k_new; ++k) col_slot_[k] = m_ + k;
  row_pos_.assign(new_m, -1);
  slot_pos_.assign(new_m, -1);
  for (int k = 0; k < new_m; ++k) {
    row_pos_[pivot_row_[k]] = k;
    slot_pos_[col_slot_[k]] = k;
  }

  // Pad the L sequence with identity transforms so the fixed-order loops
  // cover [0, new_m); their pivot rows are the new rows, whose columns are
  // empty, so the pads are exact no-ops.
  for (int k = 0; k < k_new; ++k) {
    l_cols_.emplace_back();
    l_pivot_row_.push_back(first_new_row + k);
  }

  u_cols_.resize(new_m);
  diag_.resize(new_m, 0.0);
  for (int s = m_; s < new_m; ++s) diag_[s] = new_diag[s - m_];
  for (int s = 0; s < m_; ++s) {
    for (const SparseEntry* e = a.ColBegin(basis[s]); e != a.ColEnd(basis[s]);
         ++e) {
      if (e->row >= first_new_row && e->value != 0.0) {
        u_cols_[s].push_back({e->row, static_cast<Scalar>(e->value)});
        ++u_nnz_;
      }
    }
  }
  // u_nnz0_ deliberately unchanged: the appended entries count as fill
  // against the fresh-factorization size, so long append chains trip
  // NeedsRefactorize instead of accreting an ever-denser U.

  work_.resize(new_m, 0.0);
  pos_work_.resize(new_m, 0.0);
  spike_.resize(new_m, 0.0);
  mu_work_.resize(new_m, 0.0);
  visited_.resize(new_m, 0);
  row_mark_.resize(new_m, -1);
  m_ = new_m;
  return true;
}

bool LuBasis::Update(const SparseMatrix& a, int col,
                     const std::vector<Scalar>& w, int r,
                     const std::vector<Scalar>* spike) {
  const int p = slot_pos_[r];
  const int rho = pivot_row_[p];

  // Spike: the entering column pushed through L and the prior FT
  // transforms — the forward half of Ftran, row-indexed. Replaces column
  // p of U (in position terms) once the update commits. The simplex just
  // FTRANed this very column for the ratio test, so the caller usually
  // hands the captured intermediate in and the forward solve is skipped.
  if (spike != nullptr) {
    for (int i = 0; i < m_; ++i) spike_[i] = (*spike)[i];
  } else {
    for (const SparseEntry* e = a.ColBegin(col); e != a.ColEnd(col); ++e) {
      spike_[e->row] += e->value;
    }
    for (int k = 0; k < m_; ++k) {
      const Scalar xt = spike_[l_pivot_row_[k]];
      if (xt == 0.0) continue;
      for (const LuEntry& e : l_cols_[k]) spike_[e.row] -= e.value * xt;
    }
    for (const FtEta& eta : ft_etas_) {
      Scalar acc = 0.0;
      for (const LuEntry& e : eta.mu) acc += e.value * spike_[e.row];
      spike_[eta.row] -= acc;
    }
  }
  Scalar spike_max = 0.0;
  for (int i = 0; i < m_; ++i) {
    spike_max = std::max(spike_max, std::abs(spike_[i]));
  }

  auto clear_scratch = [&] {
    for (int i = 0; i < m_; ++i) spike_[i] = 0.0;
    for (const LuEntry& e : mu_entries_) mu_work_[e.row] = 0.0;
    mu_entries_.clear();
    row_hits_.clear();
  };

  // Cycling position p to the end leaves U triangular except for the
  // now-bottom row ρ, whose entries sit in the trailing columns. Scan them
  // (without mutating — a rejected update must leave the factorization
  // untouched) and eliminate left to right: the multipliers solve the
  // triangular system μᵀ U_trail = row_ρ, computed pull-style against the
  // column-stored U.
  mu_entries_.clear();
  row_hits_.clear();
  Scalar unew = spike_[rho];
  for (int k = p + 1; k < m_; ++k) {
    const int slot = col_slot_[k];
    const std::vector<LuEntry>& ucol = u_cols_[slot];
    Scalar val = 0.0;
    for (size_t idx = 0; idx < ucol.size(); ++idx) {
      const LuEntry& e = ucol[idx];
      if (e.row == rho) {
        val += e.value;
        row_hits_.emplace_back(slot, static_cast<int>(idx));
      } else {
        const Scalar mu = mu_work_[e.row];
        if (mu != 0.0) val -= mu * e.value;
      }
    }
    if (val == 0.0) continue;
    const Scalar mu = val / diag_[slot];
    mu_work_[pivot_row_[k]] = mu;
    mu_entries_.push_back({pivot_row_[k], mu});
    unew -= mu * spike_[pivot_row_[k]];
  }

  // Stability: the new diagonal must be pivotable at the spike's scale,
  // and must agree with the value the ratio-test pivot predicts
  // (u_new = u_pp · w_r exactly, via det B_new / det B_old = w_r) —
  // disagreement means the factors have drifted and only a fresh
  // factorization restores clean numerics.
  const Scalar predicted = diag_[r] * w[r];
  const Scalar diff = std::abs(unew - predicted);
  if (std::abs(unew) < options_.abs_pivot_tol ||
      std::abs(unew) < options_.ft_rel_tol * spike_max ||
      (diff > options_.abs_pivot_tol &&
       diff > options_.ft_agree_tol *
                  std::max(std::abs(unew), std::abs(predicted)))) {
    clear_scratch();
    return false;
  }

  // Commit. Remove the eliminated row-ρ entries (swap-erase; entry order
  // within a column is irrelevant to the solves), replace column r with
  // the spike, rotate position p to the end, and record the transform.
  for (size_t h = row_hits_.size(); h-- > 0;) {
    std::vector<LuEntry>& ucol = u_cols_[row_hits_[h].first];
    ucol[row_hits_[h].second] = ucol.back();
    ucol.pop_back();
  }
  u_nnz_ -= static_cast<int64_t>(row_hits_.size());
  u_nnz_ -= static_cast<int64_t>(u_cols_[r].size());
  u_cols_[r].clear();
  for (int i = 0; i < m_; ++i) {
    if (i != rho && spike_[i] != 0.0) u_cols_[r].push_back({i, spike_[i]});
  }
  u_nnz_ += static_cast<int64_t>(u_cols_[r].size());
  diag_[r] = unew;
  std::rotate(pivot_row_.begin() + p, pivot_row_.begin() + p + 1,
              pivot_row_.end());
  std::rotate(col_slot_.begin() + p, col_slot_.begin() + p + 1,
              col_slot_.end());
  for (int k = p; k < m_; ++k) {
    row_pos_[pivot_row_[k]] = k;
    slot_pos_[col_slot_[k]] = k;
  }
  if (!mu_entries_.empty()) {
    transform_nnz_ += static_cast<int64_t>(mu_entries_.size());
    ft_etas_.push_back({rho, mu_entries_});
    for (const LuEntry& e : mu_entries_) mu_work_[e.row] = 0.0;
    mu_entries_.clear();
  }
  for (int i = 0; i < m_; ++i) spike_[i] = 0.0;
  row_hits_.clear();
  ++updates_;
  return true;
}

}  // namespace lpb
