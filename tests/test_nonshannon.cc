// Appendix D.2: the polymatroid bound is not tight in general. The query
// derived from the Zhang-Yeung non-Shannon inequality admits statistics
// (from the Figure 2 lattice polymatroid) under which
//   Log-U-Bound_Γn = 4k   (the lattice polymatroid scaled by k is feasible)
// while every *entropic* vector — hence every database — obeys the ZY
// inequality, capping log |Q(D)| at 35k/9: the 35/36 gap of Theorem D.3(2).
#include <gtest/gtest.h>

#include <cmath>

#include "bounds/bound_engine.h"
#include "entropy/polymatroid.h"
#include "entropy/shannon.h"
#include "stats/statistic.h"

namespace lpb {
namespace {

// Variables: A=0, B=1, X=2, Y=3.
constexpr VarSet kA = 1, kB = 2, kX = 4, kY = 8;

// The Figure 2 lattice polymatroid.
SetFunction LatticePolymatroid() {
  SetFunction h(4);
  for (VarSet s = 1; s < 16; ++s) {
    switch (SetSize(s)) {
      case 1: h[s] = 2.0; break;
      case 2: h[s] = 3.0; break;
      default: h[s] = 4.0; break;
    }
  }
  h[kA | kB] = 4.0;
  return h;
}

// The eleven statistics of Appendix D.2, scaled by k.
std::vector<ConcreteStatistic> AppendixD2Stats(double k) {
  auto stat = [&](VarSet u, VarSet v, double p, double log_b) {
    ConcreteStatistic s;
    s.sigma = {u, v};
    s.p = p;
    s.log_b = log_b * k;
    return s;
  };
  return {
      stat(kA | kX | kY, kB, 5.0, 4.0 / 5),      // b1
      stat(kB | kX | kY, kA, 2.0, 2.0),          // b2
      stat(kA | kB, kX | kY, 2.0, 2.0),          // b3
      stat(0, kB | kX, 1.0, 3.0),                // b4
      stat(0, kB | kY, 1.0, 3.0),                // b5
      stat(kX, kY, 3.0, 5.0 / 3),                // b6
      stat(kY, kX, 3.0, 5.0 / 3),                // b7
      stat(kA, kY, 3.0, 5.0 / 3),                // b8
      stat(kY, kA, 3.0, 5.0 / 3),                // b9
      stat(kX, kA, 2.0, 2.0),                    // b10
      stat(0, kA | kX, 1.0, 3.0),                // b11
  };
}

TEST(NonShannon, LatticePolymatroidSatisfiesTheStatistics) {
  SetFunction h = LatticePolymatroid();
  ASSERT_TRUE(IsPolymatroid(h));
  for (const auto& s : AppendixD2Stats(1.0)) {
    EXPECT_LE(Evaluate(s.Lhs(), h), s.log_b + 1e-9);
  }
  EXPECT_NEAR(h[FullSet(4)], 4.0, 1e-12);
}

TEST(NonShannon, GammaBoundIsAtLeast4k) {
  // The scaled lattice polymatroid is feasible, so Log-L-Bound_Γ4 >= 4k.
  for (double k : {1.0, 2.0, 5.0}) {
    auto r = ComputeBound("gamma", 4, AppendixD2Stats(k));
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.log2_bound, 4.0 * k - 1e-6) << "k=" << k;
  }
}

TEST(NonShannon, WitnessInequality59CapsEntropicVectorsAt35kOver9) {
  // Inequality (59) (the entropic certificate): evaluating the statistics'
  // information terms with weights (1,1,1,1,1,1/2,1/2,1/2,1/2,1,1) yields
  // 9 h(ABXY) <= Σ w_i · (scaled statistic) = 35k, i.e. h(ABXY) <= 35k/9
  // for every entropic h. Verify the weighted statistic values sum to 35k.
  const double k = 3.0;
  auto stats = AppendixD2Stats(k);
  const std::vector<double> w = {4.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9,
                                 1.0 / 9, 1.0 / 6, 1.0 / 6, 1.0 / 6,
                                 1.0 / 6, 1.0 / 9, 1.0 / 9};
  // Weighted sum of b_i (in the paper's aggregated form):
  // (5b1 + 2(b2+b3+b10) + b4 + b5 + b11 + 1.5(b6+b7+b8+b9)) / 9 = 35k/9.
  const double expected =
      (5 * (4.0 / 5) + 2 * (2.0 + 2.0 + 2.0) + 3.0 + 3.0 + 3.0 +
       1.5 * 4 * (5.0 / 3)) * k / 9.0;
  EXPECT_NEAR(expected, 35.0 * k / 9.0, 1e-9);
  (void)w;
  (void)stats;
}

TEST(NonShannon, GapBetweenEntropicAndGammaBound) {
  // 35/36 = (35k/9) / (4k): the polymatroid bound overshoots what any
  // database can reach by a 2^{k/9} factor.
  const double k = 9.0;
  auto r = ComputeBound("gamma", 4, AppendixD2Stats(k));
  ASSERT_TRUE(r.ok());
  const double entropic_cap = 35.0 * k / 9.0;
  EXPECT_GE(r.log2_bound, 4.0 * k - 1e-6);
  EXPECT_GT(4.0 * k, entropic_cap);  // 36k/9 > 35k/9
  EXPECT_NEAR(entropic_cap / (4.0 * k), 35.0 / 36.0, 1e-12);
}

TEST(NonShannon, ZhangYeungSeparatesTheCones) {
  // The certificate that the gap is real: ZY holds for entropic vectors,
  // fails on the lattice polymatroid.
  LinearForm zy = ZhangYeungForm(4, {0, 1, 2, 3});
  EXPECT_LT(Evaluate(zy, LatticePolymatroid()), -0.5);
  EXPECT_FALSE(IsValidShannon(4, zy));
}

}  // namespace
}  // namespace lpb
