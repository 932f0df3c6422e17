// Sparse revised simplex over an LU-factorized basis: the LP solver
// behind SimplexTableau (lp/tableau.h).
//
// Solves maximize c'x over Ax {<=,>=,=} b, x >= 0 in normalized standard
// form — rows sign-normalized (NormalizeRows, lp/lp_backend.h), slack/
// surplus/artificial columns appended — without ever materializing B⁻¹A.
// Each iteration does three sparse solves against the factorized basis
// (lp/lu_basis.h):
//
//   BTRAN  y = B⁻ᵀ c_B                duals; reduced cost of column j is
//                                     c_j - y·A_j, an O(nnz(A_j)) dot
//   FTRAN  w = B⁻¹ A_enter            the pivot column, for the ratio test
//   update B := B'                    Forrest–Tomlin in-place U rewrite
//
// so an iteration costs O(nnz(A) + m + update work) instead of a dense
// tableau's O(rows x cols) sweep — the difference between grinding and
// finishing on the cutting-plane Γn relaxations past n ≈ 7.
//
// Pricing is Dantzig's most-positive-reduced-cost rule. On wide problems
// (cols ≥ kPartialPricingMinCols) it prices over a candidate list: a full
// sweep ranks the eligible columns and keeps the best few dozen, later
// iterations re-price only those, and the next full sweep runs when the
// list goes dry — optimality is only ever declared by a full sweep.
//
// Anti-cycling: the ratio test breaks ties lexicographically on the rows
// of [B⁻¹b | B⁻¹], the invariant a dense tableau maintains over its
// slack/artificial block (tied rows are materialized on demand with a
// unit BTRAN). The starting basis is the identity, so rows begin
// lexicographically positive and the classic termination argument
// applies.
//
// Warm re-solves run the witness / warm / cold cascade of lp/tableau.h:
// FTRAN re-prices the new RHS under the cached factorization (witness),
// dual simplex repairs primal infeasibility from the still-dual-feasible
// basis (warm), and anything the factorization cannot represent falls
// back to a cold two-phase solve.
//
// Hot-path layout: the RHS normalization, the B⁻¹ column memo, and the
// incremental re-pricing deltas are double-precision kernels
// (lp/kernels.h) over arena-backed scratch (util/arena.h) sized to the LP
// — the normalized RHS is computed in double anyway, so nothing is lost —
// while every pivot-decision quantity (FTRAN/BTRAN images, ratio tests,
// basic values) stays long double. All solver exits write into a
// caller-owned LpResult, so a batch loop reuses one result vector and its
// x/duals capacity instead of re-allocating per column.
#ifndef LPB_LP_REVISED_SIMPLEX_H_
#define LPB_LP_REVISED_SIMPLEX_H_

#include <span>
#include <utility>
#include <vector>

#include "lp/kernels.h"
#include "lp/lp_backend.h"
#include "lp/lp_problem.h"
#include "lp/lu_basis.h"
#include "lp/simplex.h"
#include "lp/sparse_matrix.h"
#include "util/arena.h"

namespace lpb {

class RevisedSimplex {
 public:
  explicit RevisedSimplex(const LpProblem& problem,
                          const SimplexOptions& options = {});

  // Cold two-phase solve; empty `rhs` uses the problem's own right-hand
  // sides. Caches the final basis on an optimal finish.
  LpResult Solve(const std::vector<double>& rhs);
  // Warm re-solve against a new RHS (witness / dual-simplex / cold
  // cascade); behaves like Solve(rhs) when no basis is cached.
  LpResult ResolveWithRhs(const std::vector<double>& rhs);
  // Multi-RHS resolve: every column flows through the one cached LU
  // factorization (an incremental re-price or FTRAN per column, no
  // per-column rebuild), witness validation is per column, and the
  // cost-row BTRAN is shared — the cached duals serve every witness-valid
  // column in the block. A column whose basis goes stale runs the scalar
  // dual-simplex/cold cascade, and the columns after it continue against
  // the updated factorization, keeping results identical to sequential
  // ResolveWithRhs calls. Results land in `out` (resized, and every field
  // of every element overwritten), so a caller looping over batches reuses
  // the element capacity.
  void ResolveWithRhsBatch(std::span<const std::vector<double>> rhs_batch,
                           std::vector<LpResult>& out);
  // Order-relaxed block resolve: a witness-only first pass against the
  // pinned current basis — no pivots, so the B⁻¹-column memo and the
  // incremental re-price baseline survive the whole pass — then the
  // deferred stale columns run the scalar cascade in their original
  // order. This is sound because a witness verdict is order-independent:
  // the pinned basis is dual feasible (costs never change), so any column
  // it serves primal-feasibly gets the true optimum. Value-equivalent, not
  // bitwise-equal, to the strict batch (a deferred column may reach its
  // optimum through a different equal-value basis); the cutting-plane
  // batch path rides this.
  void ResolveWithRhsBatchRelaxed(
      std::span<const std::vector<double>> rhs_batch,
      std::vector<LpResult>& out);
  // Warm cut append (contract on SimplexTableau::AddConstraintsWarm): the
  // previous optimum keeps its duals (new rows get dual 0), so the
  // extended basis is dual feasible by construction. The new rows
  // join the sparse matrix via SparseMatrix::AppendRows, their slacks
  // enter the basis, and the LU factorization grows by bordered slack
  // columns (LuBasis::AppendBorderedRows) — refactorizing only when the
  // bordered growth is refused or the fill budget trips. Dual simplex then
  // repairs the rows the previous optimum violates. Declines (pre-
  // mutation, state untouched) when there is no cached optimal basis, an
  // artificial column exists, or a new row does not normalize to a
  // slack-feasible <= row.
  bool AddConstraintsWarm(const std::vector<LpConstraint>& rows,
                          const std::vector<double>& rhs,
                          LpResult& result);
  bool has_optimal_basis() const { return has_basis_; }
  // Basic column per slot (structural, then slack/surplus, then
  // artificial column ids).
  const std::vector<int>& basis() const { return basis_; }

 private:
  // Working precision, matching LuBasis::Scalar (the lexicographic ratio
  // test needs a noise floor far below its pivot eligibility threshold;
  // double's is not).
  using Scalar = long double;

  static constexpr int kNoCol = -1;
  // Degenerate (zero-step) pivots tolerated before the phase falls back
  // from Dantzig + lexicographic to Bland's rule (see RunPhase).
  static constexpr int kBlandStallThreshold = 100;
  // Base magnitude of the internal anti-degeneracy RHS perturbation
  // (graded per row, removed exactly by the cleanup pass in SolveCore).
  static constexpr double kAntiDegeneracyEps = 1e-7;
  // Candidate-list (partial) pricing engages at this column count.
  static constexpr int kPartialPricingMinCols = 512;
  // Lanes per blocked FTRAN when materializing missing B⁻¹ columns.
  static constexpr int kBinvBlockLanes = LuBasis::kMaxFtranBlockLanes;

  void Build(const std::vector<double>& rhs);
  // (Re)allocates the re-pricing scratch for rows_ rows from arena_.
  void AllocScratch();
  // Sets b_ from `rhs` and computes x_basic_ = B⁻¹b. Incremental when the
  // factorization is unchanged since the last re-price: each moved RHS
  // coordinate contributes Δ_j times column j of B⁻¹ (materialized by
  // blocked FTRANs and memoized per factorization in binv_col_), so a
  // k-statistic what-if probe costs O(rows × k) instead of a full FTRAN.
  // Every kFullRepriceInterval calls a fresh FTRAN bounds drift.
  void RepriceRhs(const std::vector<double>& rhs);
  // Ensures binv_col_ holds B⁻¹ e_j for the first `n` entries of `rows`
  // (missing columns are materialized kBinvBlockLanes at a time with
  // FtranBlock).
  void MaterializeBinvColumns(const int* rows, int n);
  // Storage for B⁻¹ e_j, allocated from arena_ on first request.
  double* BinvColumn(int j);
  // Called whenever the basis or its factorization changes.
  void InvalidateReprice();
  // After an incremental re-price, x_reprice_ is the master copy and
  // x_basic_ lags it (x_basic_stale_): the witness scan and extraction
  // read the double master directly, so only paths that actually pivot
  // pay the long-double widen. Call before any pivot-precision use of
  // x_basic_.
  void WidenReprice() {
    if (!x_basic_stale_) return;
    for (int i = 0; i < rows_; ++i) x_basic_[i] = x_reprice_[i];
    x_basic_stale_ = false;
  }
  // Basic value of slot i for feasibility scans and extraction. Exact
  // whichever copy is current: the widen is a double→long-double
  // promotion, so reading the un-widened master is bitwise the same
  // value the promoted copy would narrow back to.
  double BasicValue(int i) const {
    return x_basic_stale_ ? x_reprice_[i] : static_cast<double>(x_basic_[i]);
  }
  // The witness feasibility scan over the basic values, hoisted out of
  // the cascade and block-resolve loops: kFeasible when the cached basis
  // serves this RHS as-is, kInfeasible when dual simplex must repair
  // negative basics, kArtificial when a basic artificial sits off zero
  // (the basis cannot represent the RHS; only a cold solve decides).
  enum class ScanVerdict { kFeasible, kInfeasible, kArtificial };
  ScanVerdict ScanBasics() const;
  // Any mutation of basis_ marks the artificial-slot list stale; the next
  // ScanBasics rebuilds it (see art_slots_).
  void MarkBasisChanged() { art_slots_dirty_ = true; }
  // The cold-solve driver (anti-degeneracy attempt + unperturbed rerun)
  // behind the public Solve(); shared with the cascade's cold fallback so
  // a fallback accumulates into the call's stats_ instead of resetting it.
  void SolveFromScratch(const std::vector<double>& rhs, LpResult& result);
  // The cold two-phase solve behind Solve(). With `anti_degeneracy`, the
  // normalized RHS gets graded positive shifts so the ratio test is
  // (almost) never tied, and a cleanup pass restores the true RHS from
  // the perturbed-optimal basis; sets cleanup_failed_ when that repair
  // does not go through (Solve then re-runs unperturbed).
  void SolveCore(const std::vector<double>& rhs, bool anti_degeneracy,
                 LpResult& result);
  Scalar NormalizedRhs(int i, const std::vector<double>& rhs) const;
  // Refactorizes the basis and recomputes basic values from b_. Returns
  // false (setting numerical_failure_) if the basis went singular.
  bool Refactorize();
  // Primal phase on `cost`; false on iteration limit or numerical failure.
  bool RunPhase(const std::vector<double>& cost, bool phase_two);
  // Entering-column choice for RunPhase's non-Bland iterations: Dantzig's
  // rule, over the candidate list when partial pricing is active (falling
  // back to — and rebuilding the list from — a full sweep when the list
  // goes dry). Returns kNoCol only after a full sweep found no eligible
  // column; `best` is the entering column's reduced cost.
  int PriceEntering(const std::vector<double>& cost, int limit, double& best);
  enum class DualOutcome { kOptimal, kInfeasible, kIterationLimit };
  DualOutcome RunDualSimplex();
  // The witness / dual-simplex / cold cascade against the cached basis —
  // the shared per-column body of ResolveWithRhs and ResolveWithRhsBatch.
  // Callers must have reset the iteration bookkeeping and checked
  // has_basis_.
  void ResolveCascade(const std::vector<double>& rhs, LpResult& result);
  // Ratio test with the lexicographic tie-break; -1 if no row qualifies.
  int ChooseLeavingSlot(const std::vector<Scalar>& w);
  // Swaps `enter` into the basis at `leave_slot` using the FTRAN image `w`
  // of the entering column; updates basic values and the factorization.
  // Returns false — with the previous basis restored and refactorized —
  // when the post-pivot basis turns out numerically singular (the pivot
  // element only looked acceptable through update-chain drift); the caller
  // must not retry the same entering column.
  bool ApplyPivot(int enter, int leave_slot, const std::vector<Scalar>& w);
  void EvictArtificials();
  // y_ := B⁻ᵀ cost_B (row space).
  void ComputeDuals(const std::vector<double>& cost);
  // Exit writers: every LpResult field is set (result objects are reused
  // across batch columns, so a skipped field would be a stale read).
  // `repeat` asserts x_basic_ is bitwise-unchanged since the previous
  // extraction (the memoized witness branch of ResolveCascade): the x
  // vector and objective are then served from the extraction cache —
  // flat double memcpys — instead of re-scattering and re-dotting.
  void ExtractOptimal(LpEvalPath path, LpResult& result, bool repeat = false);
  void Failure(LpStatus status, LpResult& result);
  // Copies this call's kernel-counter deltas into stats_ (lp/kernels.h).
  void FillKernelStats();

  LpProblem problem_;
  SimplexOptions options_;
  const LpKernels* kernels_;  // dispatch table per SimplexOptions::simd

  int rows_ = 0;
  int cols_ = 0;       // structural + slack/surplus + artificial
  int first_art_ = 0;  // first artificial column index
  SparseMatrix a_;     // normalized constraint matrix, all columns
  std::vector<Scalar> b_;  // normalized RHS of the last Build/Resolve
  std::vector<double> row_sign_;
  std::vector<double> phase2_cost_;  // structural objective, padded to cols_

  std::vector<int> basis_;     // slot -> column
  std::vector<int> in_basis_;  // column -> slot, or kNoCol
  std::vector<Scalar> x_basic_;  // basic values per slot
  LuBasis lu_;

  // Arena-backed re-pricing scratch, (re)allocated per cold Build (see
  // AllocScratch). The normalized RHS is row_sign * b in double, so the
  // double buffers lose nothing; the pivot-precision consumers read the
  // widened x_basic_.
  Arena arena_;
  double* problem_rhs_ = nullptr;   // constraint(i).rhs, for the empty-rhs case
  double* norm_b_ = nullptr;        // row_sign * b (this call)
  double* last_b_ = nullptr;        // normalized RHS of the last re-price
  double* x_reprice_ = nullptr;     // B⁻¹ last_b_ (double master copy)
  // Memoized B⁻¹ columns: column j (rows_ doubles) at binv_col_[j], null
  // until row j's RHS first moves; valid while binv_valid_[j]. Stored in
  // double — they only ever feed the double delta axpy.
  std::vector<double*> binv_col_;
  std::vector<char> binv_valid_;
  // FtranBlock staging (rows_ x kBinvBlockLanes, lane-interleaved), null
  // until the first blocked materialization.
  Scalar* binv_block_ = nullptr;

  // Incremental re-pricing state (see RepriceRhs), invalidated by
  // InvalidateReprice on any basis/factorization change.
  static constexpr int kFullRepriceInterval = 64;
  bool reprice_valid_ = false;
  int reprices_since_full_ = 0;
  // Set by RepriceRhs when the normalized RHS was bitwise-unchanged from
  // the previous re-price (x_basic_ untouched); with witness_scan_ok_ —
  // "the x currently in x_basic_ passed the cascade's feasibility scan" —
  // ResolveCascade skips straight to the witness extraction. Both are
  // exact memoizations (identical values ⇒ identical verdict), so the
  // fast path changes no result bit.
  bool rhs_unchanged_ = false;
  bool witness_scan_ok_ = false;
  // True while x_reprice_ is ahead of x_basic_ (see WidenReprice).
  bool x_basic_stale_ = false;
  std::vector<int> moved_;    // rows whose normalized RHS changed
  std::vector<int> missing_;  // moved rows without a memoized B⁻¹ column
  std::vector<double> pivot_w_;  // narrowed pivot column for the memo update
  // Slots whose basic column is an artificial, rebuilt lazily per basis
  // header (see ScanBasics / MarkBasisChanged). Mutable: the scan is a
  // logically-const query and the list is a cache of basis_.
  mutable std::vector<int> art_slots_;
  mutable bool art_slots_dirty_ = true;
  // Columns deferred to the pivoting pass of the relaxed block resolve.
  std::vector<std::size_t> stale_cols_;

  int iterations_ = 0;
  int max_iterations_ = 0;
  bool unbounded_ = false;
  bool has_basis_ = false;
  bool numerical_failure_ = false;
  bool bland_mode_ = false;  // Bland's-rule fallback engaged (RunPhase)
  bool cleanup_failed_ = false;  // perturbation cleanup fell through
  std::vector<double> cached_duals_;
  // Extraction cache for the repeated-witness fast path: the x/objective
  // of the last ExtractOptimal, valid only while x_basic_ is untouched
  // (consumed strictly behind the rhs_unchanged_ && witness_scan_ok_
  // gate, refreshed by every non-repeat extraction).
  std::vector<double> cached_x_;
  double cached_objective_ = 0.0;
  bool result_cache_valid_ = false;
  std::vector<bool> frozen_;

  // Per-call counters (LpResult::stats): reset at the public entry points
  // (Solve, ResolveWithRhs, each batch column) and accumulated across the
  // whole cascade, including cold fallbacks and the anti-degeneracy rerun.
  LpSolveStats stats_;
  // Thread-local kernel counters at the last public entry; FillKernelStats
  // reports the delta (see lp/kernels.h).
  LpKernelCounters kernel_base_;
  // Candidate list of partial pricing.
  std::vector<int> price_list_;

  // Scratch (slot/row space, size rows_).
  std::vector<Scalar> y_;     // duals
  std::vector<Scalar> w_;     // FTRAN image of the entering column
  // Pre-U intermediate of the entering column's FTRAN (the FT spike),
  // captured so ApplyPivot's basis update skips the duplicate forward
  // solve. Valid only between the capturing Ftran and the pivot.
  std::vector<Scalar> spike_;
  std::vector<Scalar> cb_;    // basic costs
  std::vector<Scalar> unit_;  // unit-vector solves (B⁻¹ columns/rows)
  std::vector<Scalar> row_l_;  // leaving row of B⁻¹ (dual simplex, evict)
  std::vector<int> tied_;       // ratio-test tie candidates
  std::vector<int> survivors_;  // tie candidates surviving a coordinate
  std::vector<std::pair<double, int>> ranked_;  // pricing-sweep scratch
};

}  // namespace lpb

#endif  // LPB_LP_REVISED_SIMPLEX_H_
