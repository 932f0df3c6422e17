// The kernel layer's bitwise contract (lp/kernels.h).
//
// Every dispatched double kernel promises bit-identical results between
// the scalar table and whatever GetLpKernels(kAuto) dispatches to on this
// machine — the AVX2+FMA variants realize the exact scalar operation
// order, not an approximation of it. These tests drive each kernel across
// every size in [1, 67] (covering all vector-remainder classes several
// times over) and every misalignment of the inputs, because the AVX2
// variants use unaligned loads and a regression here would be silent on
// aligned-only data. On machines without AVX2+FMA both tables are the
// scalar one and the comparisons hold trivially.
//
// Also here: the Arena allocator the simplex uses for kernel-fed scratch
// (alignment, reuse-after-reset, capacity stability), and the blocked
// FTRAN's lane-for-lane bitwise equivalence with the solo FTRAN.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "lp/kernels.h"
#include "lp/lu_basis.h"
#include "lp/sparse_matrix.h"
#include "util/arena.h"
#include "util/random.h"

namespace lpb {
namespace {

constexpr int kMaxN = 67;   // > 16 AVX2 iterations + every remainder class
constexpr int kMaxOff = 4;  // misalignment offsets, in elements

// Deterministic fill with values of mixed magnitude and sign (subnormals
// and huge values excluded: the contract is about operation order, not
// about exotic ranges the LP never produces).
std::vector<double> RandomVec(Rng& rng, int n, int off) {
  std::vector<double> v(n + off);
  for (double& x : v) {
    x = (rng.NextDouble() - 0.5) * std::ldexp(1.0, int(rng.Next() % 40) - 20);
  }
  return v;
}

TEST(LpKernels, AxpyBitwiseParityAcrossSizesAndAlignments) {
  const LpKernels& scalar = GetLpKernels(SimdMode::kScalar);
  const LpKernels& dispatch = GetLpKernels(SimdMode::kAuto);
  Rng rng(101);
  for (int n = 1; n <= kMaxN; ++n) {
    for (int off = 0; off < kMaxOff; ++off) {
      const std::vector<double> x = RandomVec(rng, n, off);
      const std::vector<double> y0 = RandomVec(rng, n, off);
      const double a = rng.NextDouble() * 4.0 - 2.0;
      std::vector<double> ys = y0;
      std::vector<double> yv = y0;
      scalar.axpy_d(a, x.data() + off, ys.data() + off, n);
      dispatch.axpy_d(a, x.data() + off, yv.data() + off, n);
      for (int i = 0; i < n + off; ++i) {
        ASSERT_EQ(ys[i], yv[i]) << "n=" << n << " off=" << off << " i=" << i;
      }
    }
  }
}

TEST(LpKernels, DotBitwiseParityAcrossSizesAndAlignments) {
  const LpKernels& scalar = GetLpKernels(SimdMode::kScalar);
  const LpKernels& dispatch = GetLpKernels(SimdMode::kAuto);
  Rng rng(202);
  for (int n = 1; n <= kMaxN; ++n) {
    for (int off = 0; off < kMaxOff; ++off) {
      const std::vector<double> x = RandomVec(rng, n, off);
      const std::vector<double> y = RandomVec(rng, n, off);
      const double s = scalar.dot_d(x.data() + off, y.data() + off, n);
      const double v = dispatch.dot_d(x.data() + off, y.data() + off, n);
      // Bitwise, not approximate: the four-accumulator layout is part of
      // the contract precisely so this comparison can be ==.
      ASSERT_EQ(s, v) << "n=" << n << " off=" << off;
    }
  }
}

TEST(LpKernels, NormalizeRhsBitwiseParityAcrossSizesAndAlignments) {
  const LpKernels& scalar = GetLpKernels(SimdMode::kScalar);
  const LpKernels& dispatch = GetLpKernels(SimdMode::kAuto);
  Rng rng(303);
  for (int n = 1; n <= kMaxN; ++n) {
    for (int off = 0; off < kMaxOff; ++off) {
      std::vector<double> sign(n + off);
      for (double& s : sign) s = rng.Bernoulli(0.5) ? 1.0 : -1.0;
      const std::vector<double> b = RandomVec(rng, n, off);
      std::vector<double> outs(n + off, -1.0);
      std::vector<double> outv(n + off, -1.0);
      scalar.normalize_rhs_d(sign.data() + off, b.data() + off,
                             outs.data() + off, n);
      dispatch.normalize_rhs_d(sign.data() + off, b.data() + off,
                               outv.data() + off, n);
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(outs[off + i], outv[off + i])
            << "n=" << n << " off=" << off << " i=" << i;
      }
    }
  }
}

TEST(LpKernels, EqualAgreesWithScalarSemantics) {
  const LpKernels& scalar = GetLpKernels(SimdMode::kScalar);
  const LpKernels& dispatch = GetLpKernels(SimdMode::kAuto);
  Rng rng(404);
  for (int n = 1; n <= kMaxN; ++n) {
    for (int off = 0; off < kMaxOff; ++off) {
      const std::vector<double> x = RandomVec(rng, n, off);
      std::vector<double> y = x;
      EXPECT_TRUE(scalar.equal_d(x.data() + off, y.data() + off, n));
      EXPECT_TRUE(dispatch.equal_d(x.data() + off, y.data() + off, n));
      // A single flipped element at every position must be caught by both
      // variants — this is what guards the unchanged-RHS fast exit.
      for (int i = 0; i < n; ++i) {
        y[off + i] = x[off + i] + 1.0;
        EXPECT_FALSE(scalar.equal_d(x.data() + off, y.data() + off, n))
            << "n=" << n << " i=" << i;
        EXPECT_FALSE(dispatch.equal_d(x.data() + off, y.data() + off, n))
            << "n=" << n << " i=" << i;
        y[off + i] = x[off + i];
      }
    }
  }
}

TEST(LpKernels, EqualTreatsNanAsUnequalAndSignedZeroAsEqual) {
  const LpKernels& scalar = GetLpKernels(SimdMode::kScalar);
  const LpKernels& dispatch = GetLpKernels(SimdMode::kAuto);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int n : {1, 3, 4, 5, 8, 11}) {
    std::vector<double> x(n, 1.0);
    std::vector<double> y(n, 1.0);
    // NaN != NaN per IEEE — an x vector that went NaN must never be
    // reported "unchanged" (the fast exit would then serve garbage).
    x[n / 2] = nan;
    y[n / 2] = nan;
    EXPECT_FALSE(scalar.equal_d(x.data(), y.data(), n)) << "n=" << n;
    EXPECT_FALSE(dispatch.equal_d(x.data(), y.data(), n)) << "n=" << n;
    // -0.0 == +0.0 per IEEE: a sign-of-zero difference is not a change.
    x[n / 2] = 0.0;
    y[n / 2] = -0.0;
    EXPECT_TRUE(scalar.equal_d(x.data(), y.data(), n)) << "n=" << n;
    EXPECT_TRUE(dispatch.equal_d(x.data(), y.data(), n)) << "n=" << n;
  }
}

TEST(LpKernels, CallCountersBumpPerInvocation) {
  const LpKernels& k = GetLpKernels(SimdMode::kAuto);
  double x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  double y[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  const LpKernelCounters base = g_lp_kernel_counters;
  LpAxpyD(k, 0.5, x, y, 8);
  (void)LpDotD(k, x, y, 8);
  (void)LpDotD(k, x, y, 8);
  (void)LpEqualD(k, x, y, 8);
  EXPECT_EQ(g_lp_kernel_counters.calls[kLpKernelAxpy] -
                base.calls[kLpKernelAxpy], 1u);
  EXPECT_EQ(g_lp_kernel_counters.calls[kLpKernelDot] -
                base.calls[kLpKernelDot], 2u);
  EXPECT_EQ(g_lp_kernel_counters.calls[kLpKernelEqual] -
                base.calls[kLpKernelEqual], 1u);
}

TEST(LpKernels, DispatchNameMatchesCpu) {
  EXPECT_STREQ(LpKernelDispatchName(SimdMode::kScalar), "scalar");
  const char* auto_name = LpKernelDispatchName(SimdMode::kAuto);
  if (CpuHasAvx2Fma()) {
    EXPECT_STREQ(auto_name, "avx2");
    // Distinct tables: the parity tests above were not comparing a
    // function against itself.
    EXPECT_NE(GetLpKernels(SimdMode::kAuto).dot_d,
              GetLpKernels(SimdMode::kScalar).dot_d);
  } else {
    EXPECT_STREQ(auto_name, "scalar");
  }
}

// ---------------------------------------------------------------------------
// Arena

TEST(Arena, AlignmentAndReuseAfterReset) {
  Arena arena(1 << 12);
  std::vector<void*> first;
  for (int round = 0; round < 3; ++round) {
    arena.Reset();
    std::vector<void*> got;
    // Mixed sizes, including deliberately unround ones.
    for (std::size_t count : {7u, 64u, 1u, 33u, 256u}) {
      double* p = arena.AllocArray<double>(count);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kArenaAlign, 0u)
          << "count=" << count;
      // The block is genuinely writable end to end.
      for (std::size_t i = 0; i < count; ++i) p[i] = double(i);
      got.push_back(p);
    }
    long double* q = arena.AllocArray<long double>(19);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % kArenaAlign, 0u);
    got.push_back(q);
    if (round == 0) {
      first = got;
    } else {
      // Same allocation sequence after Reset => same pointers: the steady
      // state of repeated Builds touches the allocator not at all.
      EXPECT_EQ(got, first) << "round " << round;
    }
  }
}

TEST(Arena, CapacityStableAcrossResetCycles) {
  Arena arena(1 << 10);
  auto cycle = [&] {
    arena.Reset();
    arena.AllocArray<double>(100);
    arena.AllocArray<double>(500);  // spills into a second chunk
    arena.AllocArray<long double>(40);
  };
  cycle();
  const std::size_t cap = arena.CapacityBytes();
  EXPECT_GT(cap, 0u);
  for (int i = 0; i < 10; ++i) cycle();
  // No growth while the request shapes repeat.
  EXPECT_EQ(arena.CapacityBytes(), cap);
}

TEST(Arena, SmallRequestHoldsSmallCapacity) {
  // The default arena sizes chunks to the demand: an LP needing a few
  // hundred bytes of scratch must not pin a fixed floor chunk.
  Arena arena;
  arena.AllocArray<double>(10);
  EXPECT_EQ(arena.CapacityBytes(), 96u);  // 80 bytes, rounded to kArenaAlign
  arena.Reset();
  arena.AllocArray<double>(10);
  EXPECT_EQ(arena.CapacityBytes(), 96u);
}

TEST(Arena, ResetFoldsOutgrownChunksIntoOne) {
  // A grown LP (cut rounds append rows) outgrows the chunks its previous
  // solve left behind; the next Reset must replace them by one chunk of
  // exactly the grown demand, not keep the outgrown ones around.
  Arena arena;
  auto cycle = [&](std::size_t rows) {
    arena.Reset();
    arena.AllocArray<double>(rows);
    arena.AllocArray<double>(rows * rows);
  };
  cycle(8);
  EXPECT_EQ(arena.CapacityBytes(), 64u + 512u);
  cycle(16);  // spills past the two 8-row chunks
  EXPECT_GT(arena.CapacityBytes(), 128u + 2048u);
  cycle(16);
  EXPECT_EQ(arena.CapacityBytes(), 128u + 2048u);
  const std::size_t cap = arena.CapacityBytes();
  for (int i = 0; i < 5; ++i) cycle(16);
  EXPECT_EQ(arena.CapacityBytes(), cap);
  cycle(8);  // shrinking fits the folded chunk: nothing is reallocated
  EXPECT_EQ(arena.CapacityBytes(), cap);
}

TEST(Arena, OversizeRequestGetsDedicatedChunk) {
  Arena arena(64);  // tiny chunks so a big request must outgrow one
  double* big = arena.AllocArray<double>(4096);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % kArenaAlign, 0u);
  big[0] = 1.0;
  big[4095] = 2.0;
  EXPECT_EQ(big[0], 1.0);
  EXPECT_EQ(big[4095], 2.0);
}

// ---------------------------------------------------------------------------
// Blocked FTRAN vs solo FTRAN

// A random well-conditioned m x m basis: identity diagonal plus sparse
// off-diagonal noise, factorized as columns 0..m-1 of a SparseMatrix.
void BuildRandomBasis(Rng& rng, int m, SparseMatrix& a,
                      std::vector<int>& basis) {
  a = SparseMatrix(m);
  basis.resize(m);
  for (int j = 0; j < m; ++j) {
    std::vector<SparseEntry> col;
    col.push_back({j, 1.0 + rng.NextDouble()});
    for (int i = 0; i < m; ++i) {
      if (i != j && rng.Bernoulli(0.2)) {
        col.push_back({i, rng.NextDouble() - 0.5});
      }
    }
    basis[j] = a.AppendColumn(std::move(col));
  }
}

TEST(FtranBlock, LanesBitwiseMatchSoloFtran) {
  Rng rng(777);
  for (int m : {1, 2, 5, 13, 32}) {
    SparseMatrix a;
    std::vector<int> basis;
    BuildRandomBasis(rng, m, a, basis);
    LuBasis lu;
    ASSERT_TRUE(lu.Factorize(a, basis)) << "m=" << m;
    for (int lanes = 1; lanes <= LuBasis::kMaxFtranBlockLanes; ++lanes) {
      // Random dense RHS per lane, including exact zeros so the
      // skip-on-zero guards are exercised in both code paths.
      std::vector<std::vector<long double>> rhs(lanes);
      std::vector<long double> block(std::size_t(m) * lanes);
      for (int l = 0; l < lanes; ++l) {
        rhs[l].resize(m);
        for (int i = 0; i < m; ++i) {
          rhs[l][i] = rng.Bernoulli(0.3)
                          ? 0.0L
                          : static_cast<long double>(rng.NextDouble() - 0.5);
          block[std::size_t(i) * lanes + l] = rhs[l][i];
        }
      }
      lu.FtranBlock(block.data(), lanes);
      for (int l = 0; l < lanes; ++l) {
        std::vector<long double> solo = rhs[l];
        lu.Ftran(solo);
        for (int i = 0; i < m; ++i) {
          ASSERT_EQ(solo[i], block[std::size_t(i) * lanes + l])
              << "m=" << m << " lanes=" << lanes << " lane=" << l
              << " i=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace lpb
