// Dense inner-loop kernels of the LP solver, with runtime SIMD dispatch.
//
// The batch estimate path is dominated by straight-line dense loops — RHS
// normalization, B⁻¹ delta re-pricing, objective dots, basic-value sweeps —
// not by pivoting logic. This layer extracts those loops so they can be
// (a) counted and cycle-timed per kernel (the perf gate pins a regression
// to a kernel, not a solver phase), and (b) vectorized where the element
// type allows it.
//
// == The bitwise contract ==
//
// Every kernel has exactly one numerical semantics, specified below in
// scalar terms; the AVX2/FMA variants realize the *same* operation order
// and widths, so SimdMode::kAuto and kScalar produce bit-identical
// results (enforced by tests/test_lp_kernels.cc across sizes and
// alignments, and end-to-end by the parity matrix of test_batch_eval.cc):
//
//   * axpy_d:           y[i] = fma(a, x[i], y[i]) — element-wise fused
//                       multiply-add, one rounding per element, so vector
//                       lanes and scalar loop agree exactly.
//   * dot_d:            four independent accumulators, element i folded
//                       into accumulator i mod 4 with fma, reduced as
//                       (s0 + s2) + (s1 + s3). This IS the AVX2 lane
//                       layout; the scalar loop just spells it out.
//   * normalize_rhs_d:  out[i] = sign[i] * b[i] — one rounding per element,
//                       identical in vector and scalar form (and bitwise
//                       equal to the simplex's per-entry NormalizedRhs).
//   * equal_d:          whether x[i] != y[i] for no i — a pure predicate
//                       (IEEE != per element, so NaN compares unequal in
//                       both variants), no rounding anywhere. Powers the
//                       unchanged-RHS fast exit of the re-pricing paths.
//
// The pivot-decision paths (ratio tests, reduced costs, FTRAN/BTRAN) are
// long double by design — see lp/lu_basis.h — and x86 SIMD has no
// long-double lanes, so those kernels (sweep_ld and LuBasis::FtranBlock)
// are scalar in *both* modes. They still live here for the per-kernel
// call/cycle accounting.
//
// == Dispatch ==
//
// GetLpKernels(mode) returns the function table: the AVX2+FMA table when
// the CPU supports both and the mode allows it, the scalar table
// otherwise. Mode comes from SimplexOptions::simd (ResolveSimdMode,
// lp/lp_backend.h). AVX2 code is compiled with a per-function target
// attribute, so the translation unit itself needs no -mavx2 and the
// binary stays runnable on any x86-64 (and non-x86 builds simply have no
// vector table).
//
// == Accounting ==
//
// Every kernel invocation bumps a thread-local call counter; cycle
// counting (rdtsc) is off by default and enabled by
// SetLpKernelCycleTiming(true), because a serializing timestamp pair
// per kernel call would skew the very throughput the bench gates on —
// bench_throughput times its regimes with cycles off and collects the
// cycle table in one extra sweep with them on. The simplex snapshots the
// thread-local counters at each public entry and reports the delta in
// LpSolveStats::kernel_calls / kernel_cycles.
#ifndef LPB_LP_KERNELS_H_
#define LPB_LP_KERNELS_H_

#include <atomic>

#include "lp/simplex.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace lpb {

// ---------------------------------------------------------------------------
// Per-kernel call/cycle accounting (thread-local, so the TSan lane and the
// concurrent-advisor tests need no synchronization).

struct LpKernelCounters {
  unsigned long long calls[kNumLpKernels] = {};
  unsigned long long cycles[kNumLpKernels] = {};
};

// The calling thread's cumulative counters since thread start. The simplex
// snapshots this at public entry points and deltas it into LpSolveStats.
// A plain extern thread_local (not an accessor function) so the timer's
// bump inlines into the kernel call sites.
extern thread_local LpKernelCounters g_lp_kernel_counters;

// Cycle timing toggle; off until SetLpKernelCycleTiming(true).
extern std::atomic<bool> g_lp_kernel_cycle_timing;
inline bool LpKernelCycleTimingEnabled() {
  return g_lp_kernel_cycle_timing.load(std::memory_order_relaxed);
}
void SetLpKernelCycleTiming(bool enabled);

inline unsigned long long LpKernelRdtsc() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return 0;
#endif
}

// RAII scope: always counts the call; adds rdtsc cycles only when timing
// is enabled (one relaxed load when it is not).
class LpKernelTimer {
 public:
  explicit LpKernelTimer(LpKernelId id)
      : id_(id), timed_(LpKernelCycleTimingEnabled()) {
    if (timed_) start_ = LpKernelRdtsc();
  }
  ~LpKernelTimer() {
    ++g_lp_kernel_counters.calls[id_];
    if (timed_) g_lp_kernel_counters.cycles[id_] += LpKernelRdtsc() - start_;
  }
  LpKernelTimer(const LpKernelTimer&) = delete;
  LpKernelTimer& operator=(const LpKernelTimer&) = delete;

 private:
  LpKernelId id_;
  bool timed_;
  unsigned long long start_ = 0;
};

// ---------------------------------------------------------------------------
// Dispatched double-precision kernels. Raw function pointers; call through
// the Lp*D wrappers below so the accounting cannot be forgotten.

struct LpKernels {
  // y[i] = fma(a, x[i], y[i]) for i in [0, n).
  void (*axpy_d)(double a, const double* x, double* y, int n);
  // Four-accumulator fma dot; see the bitwise contract above.
  double (*dot_d)(const double* x, const double* y, int n);
  // out[i] = sign[i] * b[i] for i in [0, n).
  void (*normalize_rhs_d)(const double* sign, const double* b, double* out,
                          int n);
  // True iff x[i] != y[i] for no i in [0, n) (IEEE !=, so NaN is unequal).
  bool (*equal_d)(const double* x, const double* y, int n);
};

// True when this CPU can run the AVX2+FMA table.
bool CpuHasAvx2Fma();

// The table for `mode`. Returned reference has static storage duration.
const LpKernels& GetLpKernels(SimdMode mode);

// "avx2" or "scalar" — what GetLpKernels(mode) actually dispatched to on
// this machine. Surfaced in the bench JSON header so perf artifacts are
// comparable across runners.
const char* LpKernelDispatchName(SimdMode mode);

inline void LpAxpyD(const LpKernels& k, double a, const double* x, double* y,
                    int n) {
  LpKernelTimer timer(kLpKernelAxpy);
  k.axpy_d(a, x, y, n);
}

inline double LpDotD(const LpKernels& k, const double* x, const double* y,
                     int n) {
  LpKernelTimer timer(kLpKernelDot);
  return k.dot_d(x, y, n);
}

inline void LpNormalizeRhsD(const LpKernels& k, const double* sign,
                            const double* b, double* out, int n) {
  LpKernelTimer timer(kLpKernelNormalizeRhs);
  k.normalize_rhs_d(sign, b, out, n);
}

inline bool LpEqualD(const LpKernels& k, const double* x, const double* y,
                     int n) {
  LpKernelTimer timer(kLpKernelEqual);
  return k.equal_d(x, y, n);
}

// ---------------------------------------------------------------------------
// Long-double kernel (pivot precision): scalar in both modes — x86 SIMD has
// no long-double lanes — but counted like every other kernel.

// row[j] -= f * prow[j] for j in [0, n) — the basic-value update of a
// pivot (x_B -= θ·w).
inline void LpSweepLd(long double* row, const long double* prow,
                      long double f, int n) {
  LpKernelTimer timer(kLpKernelSweep);
  for (int j = 0; j < n; ++j) row[j] -= f * prow[j];
}

}  // namespace lpb

#endif  // LPB_LP_KERNELS_H_
