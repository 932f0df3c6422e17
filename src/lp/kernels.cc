#include "lp/kernels.h"

#include <cmath>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define LPB_HAVE_AVX2_KERNELS 1
#endif

namespace lpb {

thread_local LpKernelCounters g_lp_kernel_counters;

std::atomic<bool> g_lp_kernel_cycle_timing{false};

void SetLpKernelCycleTiming(bool enabled) {
  g_lp_kernel_cycle_timing.store(enabled, std::memory_order_relaxed);
}

namespace {

// ---------------------------------------------------------------------------
// Scalar reference implementations. These DEFINE the semantics; the AVX2
// variants below must match them bit for bit (see the header comment).
// std::fma is a single rounding per element — identical to the hardware
// vfmadd lanes — and no loop here is reassociable by the compiler at the
// project's -O2 (no -ffast-math), so the scalar order is stable.

void AxpyScalar(double a, const double* x, double* y, int n) {
  for (int i = 0; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

double DotScalar(const double* x, const double* y, int n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 = std::fma(x[i], y[i], s0);
    s1 = std::fma(x[i + 1], y[i + 1], s1);
    s2 = std::fma(x[i + 2], y[i + 2], s2);
    s3 = std::fma(x[i + 3], y[i + 3], s3);
  }
  // Remainder elements fold into lanes 0..2 in order, matching the
  // masked-lane handling of the vector variant.
  if (i < n) s0 = std::fma(x[i], y[i], s0);
  if (i + 1 < n) s1 = std::fma(x[i + 1], y[i + 1], s1);
  if (i + 2 < n) s2 = std::fma(x[i + 2], y[i + 2], s2);
  return (s0 + s2) + (s1 + s3);
}

void NormalizeRhsScalar(const double* sign, const double* b, double* out,
                        int n) {
  for (int i = 0; i < n; ++i) out[i] = sign[i] * b[i];
}

bool EqualScalar(const double* x, const double* y, int n) {
  for (int i = 0; i < n; ++i) {
    if (x[i] != y[i]) return false;
  }
  return true;
}

constexpr LpKernels kScalarKernels = {AxpyScalar, DotScalar,
                                      NormalizeRhsScalar, EqualScalar};

#if LPB_HAVE_AVX2_KERNELS

// ---------------------------------------------------------------------------
// AVX2+FMA variants. Per-function target attributes keep the rest of the
// binary baseline x86-64; loads are unaligned (vmovupd costs the same as
// vmovapd on aligned data since Nehalem) so callers never have to prove
// alignment, though arena-backed buffers are 32-byte aligned anyway.

__attribute__((target("avx2,fma"))) void AxpyAvx2(double a, const double* x,
                                                  double* y, int n) {
  const __m256d va = _mm256_set1_pd(a);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i, _mm256_fmadd_pd(va, vx, vy));
  }
  for (; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

__attribute__((target("avx2,fma"))) double DotAvx2(const double* x,
                                                   const double* y, int n) {
  __m256d acc = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    acc = _mm256_fmadd_pd(vx, vy, acc);
  }
  alignas(32) double s[4];
  _mm256_store_pd(s, acc);
  // Remainder elements continue the same lane assignment (i mod 4 == 0,1,2
  // here because i is a multiple of 4), so this matches DotScalar exactly.
  if (i < n) s[0] = std::fma(x[i], y[i], s[0]);
  if (i + 1 < n) s[1] = std::fma(x[i + 1], y[i + 1], s[1]);
  if (i + 2 < n) s[2] = std::fma(x[i + 2], y[i + 2], s[2]);
  return (s[0] + s[2]) + (s[1] + s[3]);
}

__attribute__((target("avx2"))) void NormalizeRhsAvx2(const double* sign,
                                                      const double* b,
                                                      double* out, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vs = _mm256_loadu_pd(sign + i);
    const __m256d vb = _mm256_loadu_pd(b + i);
    // One rounding per lane, exactly the scalar sign[i]*b[i].
    _mm256_storeu_pd(out + i, _mm256_mul_pd(vs, vb));
  }
  for (; i < n; ++i) out[i] = sign[i] * b[i];
}

__attribute__((target("avx2"))) bool EqualAvx2(const double* x,
                                               const double* y, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    // Unordered != (NEQ_UQ): NaN lanes report unequal, same as the scalar
    // operator!=. Pure predicate, so the variants agree by construction.
    const __m256d neq = _mm256_cmp_pd(vx, vy, _CMP_NEQ_UQ);
    if (_mm256_movemask_pd(neq) != 0) return false;
  }
  for (; i < n; ++i) {
    if (x[i] != y[i]) return false;
  }
  return true;
}

constexpr LpKernels kAvx2Kernels = {AxpyAvx2, DotAvx2, NormalizeRhsAvx2,
                                    EqualAvx2};

#endif  // LPB_HAVE_AVX2_KERNELS

}  // namespace

bool CpuHasAvx2Fma() {
#if LPB_HAVE_AVX2_KERNELS
  static const bool has =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return has;
#else
  return false;
#endif
}

const LpKernels& GetLpKernels(SimdMode mode) {
#if LPB_HAVE_AVX2_KERNELS
  if (mode != SimdMode::kScalar && CpuHasAvx2Fma()) return kAvx2Kernels;
#else
  (void)mode;
#endif
  return kScalarKernels;
}

const char* LpKernelDispatchName(SimdMode mode) {
  return &GetLpKernels(mode) == &kScalarKernels ? "scalar" : "avx2";
}

}  // namespace lpb
