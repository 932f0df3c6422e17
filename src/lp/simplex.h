// LP result, option and statistics types, and the one-shot SolveLp.
//
// Solves `maximize c'x s.t. Ax {<=,>=,=} b, x >= 0` with the two-phase
// revised simplex of lp/revised_simplex.h: phase 1 drives artificial
// variables out of the basis, phase 2 optimizes the real objective, and a
// lexicographic ratio test guarantees termination on the heavily
// degenerate cutting-plane LPs of the bound engine. The primal phases price
// by Dantzig's rule (most positive reduced cost); a pivot rule picks only
// the path to the optimum, never the optimum or its duals. Dual values for
// every constraint come with each optimal result — the bound engines use
// them as the witness coefficients w_i of the paper's information
// inequality (8).
#ifndef LPB_LP_SIMPLEX_H_
#define LPB_LP_SIMPLEX_H_

#include <vector>

#include "lp/lp_problem.h"

namespace lpb {

enum class LpStatus {
  kOptimal,
  kUnbounded,
  kInfeasible,
  kIterationLimit,
};

// How a result was obtained (see lp/tableau.h): a full two-phase solve
// (kCold), dual-simplex pivots from a cached optimal basis (kWarm), or a
// pure read-off of the still-optimal cached basis (kWitness).
enum class LpEvalPath { kCold, kWarm, kWitness };

// The LP solver behind SolveLp / SimplexTableau. There is one: the sparse
// revised simplex with an LU-factorized basis (lp/revised_simplex.h). The
// enum stays so explanations and bench headers can name it.
enum class LpBackendKind { kRevised };

// "revised".
const char* LpBackendName(LpBackendKind kind);

// SIMD dispatch of the double-precision LP kernels (lp/kernels.h).
//   kAuto   — use the AVX2+FMA variants when the CPU supports them (the
//             default).
//   kScalar — force the scalar fallbacks. Bitwise-identical results to
//             kAuto by construction (see lp/kernels.h); this mode exists
//             so the tests can run the scalar table end to end.
// The long-double pivot-precision kernels are scalar under every mode —
// x86 SIMD has no long-double lanes.
enum class SimdMode { kAuto, kScalar };

// Whether the cutting-plane engines carry the previous round's optimal
// basis across cut-growth rounds (SimplexTableau::AddConstraintsWarm +
// dual-simplex repair) instead of rebuilding the tableau and re-solving
// cold from the identity basis.
//   kOn  — append cut rows warm (the default); fall back to a cold rebuild
//          only when the tableau declines the append.
//   kOff — always rebuild + cold-solve per round.
// Warm and cold converge to the same bound (the cut oracle separates on
// the optimal vertex either way); kOff is the reference the warm-vs-cold
// differential tests compare against.
enum class CutWarmStart { kOn, kOff };

// Kernel identifiers for the per-kernel call/cycle table carried by
// LpSolveStats (filled from the thread-local counters of lp/kernels.h).
enum LpKernelId {
  kLpKernelAxpy = 0,      // y[i] = fma(a, x[i], y[i])         (double, SIMD)
  kLpKernelDot,           // 4-accumulator fma dot             (double, SIMD)
  kLpKernelNormalizeRhs,  // out[i] = sign[i]*b[i]             (double, SIMD)
  kLpKernelEqual,         // all-equal predicate (IEEE !=)     (double, SIMD)
  kLpKernelGather,        // retired (dense tableau); never counted
  kLpKernelSweep,         // x_B -= theta*w pivot sweep        (long double)
  kLpKernelScale,         // retired (dense tableau); never counted
  kLpKernelFtranBlock,    // blocked multi-RHS FTRAN           (long double)
  kNumLpKernels,
};

// Short stable name ("axpy_d", "dot_d", ...) used as the JSON key of the
// bench kernel table.
const char* LpKernelName(LpKernelId id);

// Per-call solver statistics, reported on every LpResult and aggregated
// upward into BoundResult::lp_stats and the advisor's AdvisorMetrics. All
// counters cover one logical solver call (a Solve including its internal
// anti-degeneracy rerun, a ResolveWithRhs including any cascade fallback,
// or one column of a batch resolve).
struct LpSolveStats {
  int phase1_pivots = 0;      // primal phase-1 pivots
  int phase2_pivots = 0;      // primal phase-2 pivots
  int dual_pivots = 0;        // dual-simplex (warm repair) pivots
  int refactorizations = 0;   // full LU factorizations after the first
  int ft_updates = 0;         // Forrest–Tomlin in-place U updates taken
  int rejected_updates = 0;   // updates refused (unstable), forcing refactor
  // Warm cut-round accounting (see SimplexTableau::AddConstraintsWarm,
  // lp/tableau.h).
  int warm_cut_rounds = 0;          // cut rounds served by a warm row append
  int dual_repair_pivots = 0;       // dual pivots spent repairing appended
                                    // rows (a subset of dual_pivots)
  int row_appends = 0;              // rows installed via AddConstraintsWarm
  int append_refactorizations = 0;  // full refactorizations forced by an
                                    // append (fill budget / validation)

  // Per-kernel invocation counts and (when SetLpKernelCycleTiming(true))
  // rdtsc cycles for this call, indexed by LpKernelId. Cycles are zero when
  // timing is off — counting is always on, timing costs a serializing
  // timestamp pair per kernel call.
  unsigned long long kernel_calls[kNumLpKernels] = {};
  unsigned long long kernel_cycles[kNumLpKernels] = {};

  int TotalPivots() const {
    return phase1_pivots + phase2_pivots + dual_pivots;
  }
  // Zeroes the pivot counters only. The kernel arrays are rewritten
  // wholesale by the backends' FillKernelStats on every exit path, so
  // clearing them per batch column (256 bytes) would be pure overhead;
  // use `*this = {}` when the struct escapes without a FillKernelStats.
  void ResetPivots() {
    phase1_pivots = 0;
    phase2_pivots = 0;
    dual_pivots = 0;
    refactorizations = 0;
    ft_updates = 0;
    rejected_updates = 0;
    warm_cut_rounds = 0;
    dual_repair_pivots = 0;
    row_appends = 0;
    append_refactorizations = 0;
  }
  void Add(const LpSolveStats& o) {
    phase1_pivots += o.phase1_pivots;
    phase2_pivots += o.phase2_pivots;
    dual_pivots += o.dual_pivots;
    refactorizations += o.refactorizations;
    ft_updates += o.ft_updates;
    rejected_updates += o.rejected_updates;
    warm_cut_rounds += o.warm_cut_rounds;
    dual_repair_pivots += o.dual_repair_pivots;
    row_appends += o.row_appends;
    append_refactorizations += o.append_refactorizations;
    for (int k = 0; k < kNumLpKernels; ++k) {
      kernel_calls[k] += o.kernel_calls[k];
      kernel_cycles[k] += o.kernel_cycles[k];
    }
  }
};

struct LpResult {
  // NOTE: the default is deliberately a *failure* status. A default-
  // constructed LpResult must never read as solved; every solver path is
  // required to set `status` explicitly and to size `x`/`duals` as
  // documented below even on failure (see tests/test_revised_simplex.cc
  // regression tests).
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  // Primal solution, size = problem.num_vars(). Meaningful when kOptimal;
  // on any other status the solver still sizes it (all zeros) so callers
  // indexing unconditionally cannot read stale or out-of-range data.
  std::vector<double> x;
  // Dual value per constraint, size = problem.num_constraints() (zeros on
  // non-optimal statuses, like `x`).
  // Sign convention: for a <= constraint of a maximization problem the dual
  // is >= 0, for >= it is <= 0; duals satisfy sum_i y_i b_i = objective.
  std::vector<double> duals;
  int iterations = 0;
  // Which evaluation path produced this result (always kCold for SolveLp).
  LpEvalPath path = LpEvalPath::kCold;
  // Pivot / update / refactorization counters for this call.
  LpSolveStats stats;
};

struct SimplexOptions {
  double eps = 1e-9;          // pivot / feasibility tolerance
  int max_iterations = 0;     // 0 = automatic (50 * (rows + cols) + 1000)
  // Forrest–Tomlin basis updates carried between full refactorizations.
  // 0 = automatic (64). The fill budget in lp/lu_basis.h can force an
  // earlier refactorization either way.
  int max_basis_updates = 0;
  // SIMD dispatch of the double-precision kernels (lp/kernels.h); results
  // are bit-identical under both modes.
  SimdMode simd = SimdMode::kAuto;
  // Warm-started cut rounds in the cutting-plane engines (see the enum
  // above).
  CutWarmStart cut_warm_start = CutWarmStart::kOn;
};

// Solves the LP. The problem is copied into an internal tableau; `problem`
// is not modified.
LpResult SolveLp(const LpProblem& problem, const SimplexOptions& options = {});

}  // namespace lpb

#endif  // LPB_LP_SIMPLEX_H_
