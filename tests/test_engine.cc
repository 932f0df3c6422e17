#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bounds/agm.h"
#include "bounds/bound_engine.h"
#include "bounds/formulas.h"
#include "bounds/normal_engine.h"
#include "dense_oracle.h"
#include "entropy/polymatroid.h"
#include "query/parser.h"
#include "relation/degree_sequence.h"
#include "util/random.h"

namespace lpb {
namespace {

ConcreteStatistic Stat(VarSet u, VarSet v, double p, double log_b) {
  ConcreteStatistic s;
  s.sigma = {u, v};
  s.p = p;
  s.log_b = log_b;
  return s;
}

// --- Polymatroid engine ----------------------------------------------------

TEST(Engine, SingleRelationCardinality) {
  // Q(X,Y) = R(X,Y), |R| <= 2^5: bound must be exactly 5.
  auto r = ComputeBound("gamma", 2, {Stat(0, 0b11, 1.0, 5.0)});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.log2_bound, 5.0, 1e-7);
}

TEST(Engine, TriangleAgmFromCardinalities) {
  // Triangle with |R|=|S|=|T|=2^10: AGM bound 2^15.
  std::vector<ConcreteStatistic> stats = {
      Stat(0, 0b011, 1.0, 10.0),
      Stat(0, 0b110, 1.0, 10.0),
      Stat(0, 0b101, 1.0, 10.0),
  };
  auto r = ComputeBound("gamma", 3, stats);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.log2_bound, 15.0, 1e-7);
}

TEST(Engine, TriangleMatchesAgmLp) {
  // Asymmetric sizes: engine (cardinalities only) == fractional edge cover.
  Query q = *ParseQuery("R(X,Y), S(Y,Z), T(Z,X)");
  std::vector<double> log_sizes = {8.0, 11.0, 13.0};
  AgmResult agm = AgmBound(q, log_sizes);
  std::vector<ConcreteStatistic> stats = {
      Stat(0b011, 0, 1.0, 8.0), Stat(0b110, 0, 1.0, 11.0),
      Stat(0b101, 0, 1.0, 13.0)};
  for (auto& s : stats) {
    s.sigma = {0, s.sigma.u};  // cardinality form (V|∅)
  }
  auto r = ComputeBound("gamma", 3, stats);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.log2_bound, agm.log2_bound, 1e-6);
}

TEST(Engine, SingleJoinL2EqualsCauchySchwarz) {
  // Q = R(X,Y) ∧ S(Y,Z) with only the two ℓ2 statistics: the polymatroid
  // bound equals ||deg_R(X|Y)||_2 · ||deg_S(Z|Y)||_2 (Eq. 18), exactly.
  const double b1 = 3.7, b2 = 2.2;
  std::vector<ConcreteStatistic> stats = {
      Stat(0b010, 0b001, 2.0, b1),  // deg_R(X|Y), vars X=0,Y=1,Z=2
      Stat(0b010, 0b100, 2.0, b2),
  };
  auto r = ComputeBound("gamma", 3, stats);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.log2_bound, JoinL2Log2(b1, b2), 1e-7);
}

TEST(Engine, TriangleSymmetricL2) {
  // Symmetric ℓ2 statistics l on all three conditionals: bound = 2l (Eq. 4).
  const double l = 4.25;
  std::vector<ConcreteStatistic> stats = {
      Stat(0b001, 0b010, 2.0, l),   // deg_R(Y|X)
      Stat(0b010, 0b100, 2.0, l),   // deg_S(Z|Y)
      Stat(0b100, 0b001, 2.0, l),   // deg_T(X|Z)
  };
  auto r = ComputeBound("gamma", 3, stats);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.log2_bound, TriangleL2Log2(l, l, l), 1e-7);
}

TEST(Engine, BoundNeverExceedsClosedForms) {
  // With a rich stat set, the LP optimum is <= every hand-derived formula.
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const double log_r = 5.0 + 5.0 * rng.NextDouble();
    const double l2_r = 0.55 * log_r, l2_s = 0.6 * log_r, l2_t = 0.5 * log_r;
    const double inf_s = 0.3 * log_r;
    std::vector<ConcreteStatistic> stats = {
        Stat(0, 0b011, 1.0, log_r),       Stat(0, 0b110, 1.0, log_r),
        Stat(0, 0b101, 1.0, log_r),       Stat(0b001, 0b010, 2.0, l2_r),
        Stat(0b010, 0b100, 2.0, l2_s),    Stat(0b100, 0b001, 2.0, l2_t),
        Stat(0b010, 0b100, kInfNorm, inf_s),
    };
    auto r = ComputeBound("gamma", 3, stats);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r.log2_bound,
              TriangleAgmLog2(log_r, log_r, log_r) + 1e-7);
    EXPECT_LE(r.log2_bound, TrianglePandaLog2(log_r, inf_s) + 1e-7);
    EXPECT_LE(r.log2_bound, TriangleL2Log2(l2_r, l2_s, l2_t) + 1e-7);
  }
}

TEST(Engine, DualWeightsCertifyBound) {
  std::vector<ConcreteStatistic> stats = {
      Stat(0b001, 0b010, 2.0, 4.0),
      Stat(0b010, 0b100, 2.0, 6.0),
      Stat(0b100, 0b001, 2.0, 5.0),
      Stat(0, 0b011, 1.0, 7.0),
  };
  auto r = ComputeBound("gamma", 3, stats);
  ASSERT_TRUE(r.ok());
  double certified = 0.0;
  for (size_t i = 0; i < stats.size(); ++i) {
    EXPECT_GE(r.weights[i], -1e-9);
    certified += r.weights[i] * stats[i].log_b;
  }
  EXPECT_NEAR(certified, r.log2_bound, 1e-6);
}

TEST(Engine, OptimalVectorIsFeasiblePolymatroid) {
  std::vector<ConcreteStatistic> stats = {
      Stat(0b001, 0b010, 3.0, 4.0),
      Stat(0b010, 0b100, 2.0, 6.0),
      Stat(0, 0b101, 1.0, 7.0),
  };
  auto r = ComputeBound("gamma", 3, stats);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(IsPolymatroid(r.h_opt, 1e-6));
  for (const auto& s : stats) {
    EXPECT_LE(Evaluate(s.Lhs(), r.h_opt), s.log_b + 1e-6);
  }
  EXPECT_NEAR(r.h_opt[FullSet(3)], r.log2_bound, 1e-7);
}

TEST(Engine, UnboundedWhenVariableUncovered) {
  // No statistic mentions variable Z: h(Z) is unconstrained.
  auto r = ComputeBound("gamma", 3, {Stat(0, 0b011, 1.0, 5.0)});
  EXPECT_TRUE(r.unbounded());
  EXPECT_TRUE(std::isinf(r.log2_bound));
}

TEST(Engine, InfinityOnlyStatsUnbounded) {
  // Max-degree statistics alone never bound the output (no ℓ1 anchor).
  std::vector<ConcreteStatistic> stats = {
      Stat(0b001, 0b010, kInfNorm, 2.0),
      Stat(0b010, 0b100, kInfNorm, 2.0),
      Stat(0b100, 0b001, kInfNorm, 2.0),
  };
  auto r = ComputeBound("gamma", 3, stats);
  EXPECT_TRUE(r.unbounded());
}

TEST(Engine, MoreStatisticsNeverWorsenBound) {
  std::vector<ConcreteStatistic> base = {
      Stat(0, 0b011, 1.0, 9.0), Stat(0, 0b110, 1.0, 9.0),
      Stat(0, 0b101, 1.0, 9.0)};
  auto r1 = ComputeBound("gamma", 3, base);
  std::vector<ConcreteStatistic> more = base;
  more.push_back(Stat(0b001, 0b010, 2.0, 5.0));
  auto r2 = ComputeBound("gamma", 3, more);
  more.push_back(Stat(0b010, 0b100, kInfNorm, 2.0));
  auto r3 = ComputeBound("gamma", 3, more);
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_LE(r2.log2_bound, r1.log2_bound + 1e-7);
  EXPECT_LE(r3.log2_bound, r2.log2_bound + 1e-7);
}

TEST(Engine, TighterStatisticsTightenBound) {
  std::vector<ConcreteStatistic> loose = {
      Stat(0, 0b011, 1.0, 10.0), Stat(0b010, 0b100, kInfNorm, 5.0)};
  std::vector<ConcreteStatistic> tight = {
      Stat(0, 0b011, 1.0, 10.0), Stat(0b010, 0b100, kInfNorm, 2.0)};
  auto rl = ComputeBound("gamma", 3, loose);
  auto rt = ComputeBound("gamma", 3, tight);
  ASSERT_TRUE(rl.ok() && rt.ok());
  EXPECT_NEAR(rl.log2_bound, 15.0, 1e-7);  // PANDA form |R|·D
  EXPECT_NEAR(rt.log2_bound, 12.0, 1e-7);
}

TEST(Engine, Example67GammaBoundIsB) {
  // Example 6.7: triangle + unary atoms, ℓ4 statistics and unary
  // cardinalities all equal to b: the bound is exactly b.
  const double b = 6.0;
  std::vector<ConcreteStatistic> stats = {
      Stat(0, 0b001, 1.0, b),       Stat(0, 0b010, 1.0, b),
      Stat(0, 0b100, 1.0, b),       Stat(0b001, 0b010, 4.0, b / 4.0),
      Stat(0b010, 0b100, 4.0, b / 4.0), Stat(0b100, 0b001, 4.0, b / 4.0),
  };
  // Log-statistics of (40): h(X) <= b and h(X) + 4h(Y|X) <= b, i.e. the ℓ4
  // statement ||deg||_4 <= 2^{b/4} == ||deg||_4^4 <= 2^b.
  auto r = ComputeBound("gamma", 3, stats);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.log2_bound, b, 1e-6);
}

TEST(Engine, CuttingPlaneMatchesFullLattice) {
  Rng rng(47);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 4;
    std::vector<ConcreteStatistic> stats;
    // Random chain-ish simple statistics covering all variables.
    for (int i = 0; i < n; ++i) {
      const VarSet u = VarBit(i), v = VarBit((i + 1) % n);
      stats.push_back(Stat(0, u | v, 1.0, 4.0 + 4.0 * rng.NextDouble()));
      stats.push_back(
          Stat(u, v, 1.0 + rng.Uniform(4), 1.0 + 3.0 * rng.NextDouble()));
    }
    EngineOptions full;
    full.full_lattice_max_n = 10;
    EngineOptions cuts;
    cuts.full_lattice_max_n = 1;  // force cutting-plane mode
    auto rf = ComputeBound("gamma", n, stats, full);
    auto rc = ComputeBound("gamma", n, stats, cuts);
    ASSERT_TRUE(rf.ok());
    ASSERT_TRUE(rc.ok());
    EXPECT_NEAR(rf.log2_bound, rc.log2_bound, 1e-5) << "trial " << trial;
    // cut_rounds may legitimately be 0: the seed cuts can already suffice.
    EXPECT_GE(rc.cut_rounds, 0);
  }
}

TEST(Engine, CuttingPlaneDetectsUnbounded) {
  EngineOptions cuts;
  cuts.full_lattice_max_n = 1;
  auto r = ComputeBound("gamma", 3, {Stat(0, 0b011, 1.0, 5.0)}, cuts);
  EXPECT_TRUE(r.unbounded());
}

TEST(Engine, FiltersSplitStatisticClasses) {
  std::vector<ConcreteStatistic> stats = {
      Stat(0, 0b011, 1.0, 9.0),          // cardinality
      Stat(0b001, 0b010, 1.0, 8.0),      // ℓ1 on a conditional (projection)
      Stat(0b001, 0b010, 2.0, 5.0),      // ℓ2
      Stat(0b010, 0b100, kInfNorm, 2.0), // ℓ∞
  };
  const BoundStructure structure = StructureOf(3, stats);
  EXPECT_EQ(std::count_if(structure.shapes.begin(), structure.shapes.end(),
                          IsAgmShape),
            1);
  EXPECT_EQ(std::count_if(structure.shapes.begin(), structure.shapes.end(),
                          IsPandaShape),
            3);
}

TEST(Engine, SingletonRelationsGiveZeroBound) {
  // |R| = |S| = 1 (log_b = 0): the join has at most one tuple.
  std::vector<ConcreteStatistic> stats = {
      Stat(0, 0b011, 1.0, 0.0), Stat(0, 0b110, 1.0, 0.0)};
  auto r = ComputeBound("gamma", 3, stats);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.log2_bound, 0.0, 1e-8);
}

TEST(Engine, FractionalNormIndex) {
  // p = 1.5 is legal: (2/3)h(Y) + h(X|Y) <= b. With symmetric statistics
  // the bound is finite and between the p=1 and p=2 bounds.
  const double b = 5.0;
  auto mk = [&](double p) {
    return std::vector<ConcreteStatistic>{
        Stat(0b010, 0b001, p, b), Stat(0b010, 0b100, p, b)};
  };
  auto r15 = ComputeBound("gamma", 3, mk(1.5));
  auto r2 = ComputeBound("gamma", 3, mk(2.0));
  ASSERT_TRUE(r15.ok() && r2.ok());
  // Same log_b at a smaller p is a weaker constraint set: bound larger.
  EXPECT_GE(r15.log2_bound, r2.log2_bound - 1e-7);
}

TEST(Engine, SubUnitCardinalityIsInfeasible) {
  // A statistic asserting |Π_XY(R)| <= 1/2 contradicts h >= 0: entropies
  // of nonempty relations are nonnegative. The engines report infeasible
  // (the "bound" is that the output must be empty, so log2 1 = 0 is sound).
  std::vector<ConcreteStatistic> stats = {
      Stat(0, 0b011, 1.0, -1.0),
      Stat(0, 0b110, 1.0, 3.0),
  };
  for (const char* engine : {"gamma", "normal", "auto"}) {
    auto r = ComputeBound(engine, 3, stats);
    EXPECT_EQ(r.status, LpStatus::kInfeasible) << engine;
    EXPECT_EQ(r.log2_bound, 0.0) << engine;
  }
}

TEST(Engine, GuardedTernaryConditionalNonSimple) {
  // A non-simple statistic (|U| = 2) exercises the Γn path that the normal
  // engine cannot take: deg(Z|XY) over a ternary atom plus a cardinality.
  std::vector<ConcreteStatistic> stats = {
      Stat(0b011, 0b100, 2.0, 2.0),  // (Z | XY), l2
      Stat(0, 0b011, 1.0, 6.0),      // |Pi_XY|
  };
  auto r = ComputeBound("gamma", 3, stats);
  ASSERT_TRUE(r.ok());
  // h(XYZ) <= 2 + h(XY)/2 and monotonicity h(XYZ) >= h(XY) force
  // h(XY) <= 4, so the optimum is h(XYZ) = 4 (not the naive 2 + 6/2).
  EXPECT_NEAR(r.log2_bound, 4.0, 1e-6);
}

// --- Normal engine and Theorem 6.1 ----------------------------------------

TEST(NormalEngine, MatchesPolymatroidOnSimpleStats) {
  // Theorem 6.1: for simple statistics the Nn and Γn bounds coincide. The
  // Γn side is the oracle over the full lattice, independent of the
  // engines.
  Rng rng(53);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = 3 + static_cast<int>(rng.Uniform(2));
    std::vector<ConcreteStatistic> stats;
    for (int i = 0; i < n; ++i) {
      const VarSet u = VarBit(i);
      const VarSet v = VarBit(static_cast<int>(rng.Uniform(n)));
      if (u == v) continue;
      double p = std::vector<double>{1.0, 2.0, 3.0, kInfNorm}[rng.Uniform(4)];
      stats.push_back(Stat(u, v, p, 1.0 + 5.0 * rng.NextDouble()));
      stats.push_back(Stat(0, u | v, 1.0, 4.0 + 4.0 * rng.NextDouble()));
    }
    if (stats.empty()) continue;
    auto rn = ComputeBound("normal", n, stats);
    const LpResult rp = DenseOracleSolve(FullLatticeLp(n, stats));
    ASSERT_EQ(rn.status, rp.status) << "trial " << trial;
    if (rp.status != LpStatus::kOptimal) continue;
    EXPECT_NEAR(rn.log2_bound, rp.objective, 1e-5) << "trial " << trial;
  }
}

TEST(NormalEngine, AlphaReconstructsOptimum) {
  std::vector<ConcreteStatistic> stats = {
      Stat(0, 0b011, 1.0, 8.0), Stat(0b010, 0b100, kInfNorm, 3.0)};
  auto r = ComputeBound("normal", 3, stats);
  ASSERT_TRUE(r.ok());
  SetFunction h = SetFunction::NormalCombination(3, r.alpha);
  EXPECT_LT(h.MaxDiff(r.h_opt), 1e-9);
  EXPECT_NEAR(h[FullSet(3)], r.log2_bound, 1e-7);
  for (double a : r.alpha) EXPECT_GE(a, -1e-9);
  // α* rides along with h*, and only the normal engine has one.
  auto compiled = FindBoundEngine("normal")->Compile(StructureOf(3, stats));
  EXPECT_TRUE(compiled->Evaluate(ValuesOf(stats), /*want_h_opt=*/false)
                  .alpha.empty());
  EXPECT_TRUE(ComputeBound("gamma", 3, stats).alpha.empty());
}

TEST(NormalEngine, NonSimpleUnderestimates) {
  // For a NON-simple statistic the Nn optimum can drop below the Γn bound;
  // it must never exceed it. The "normal" engine refuses such structures,
  // so the Nn side solves the unpruned LP directly.
  std::vector<ConcreteStatistic> stats = {
      Stat(0b011, 0b100, 2.0, 3.0),  // (Z | XY): not simple
      Stat(0, 0b011, 1.0, 5.0),
  };
  const LpResult rn = SolveLp(BuildNormalBoundLp(3, stats));
  auto rp = ComputeBound("gamma", 3, stats);
  ASSERT_EQ(rn.status, LpStatus::kOptimal);
  ASSERT_TRUE(rp.ok());
  EXPECT_LE(rn.objective, rp.log2_bound + 1e-7);
}

TEST(NormalEngine, DispatcherPicksNormalForSimple) {
  std::vector<ConcreteStatistic> stats = {
      Stat(0, 0b011, 1.0, 8.0), Stat(0b010, 0b100, 2.0, 3.0)};
  auto r = ComputeBound("auto", 3, stats);
  auto rn = ComputeBound("normal", 3, stats);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.log2_bound, rn.log2_bound, 1e-9);
  // Only the normal engine reports step-function coefficients.
  EXPECT_FALSE(r.alpha.empty());
}

// --- PANDA / AGM specializations on the cycle (Example 2.3 / C.5) ---------

TEST(Engine, CycleBoundsMatchExample23) {
  // (p+1)-cycle with identical relations: |R| = N, ||deg||_q^q = N for
  // q <= p, ||deg||_∞ = N^{1/(p+1)}. The {1,...,p,∞}-bound is
  // N^{(p+1)/(p+1)} · ... = L^{(p+1)p/(p+1)} ... per C.5: bound (21) with
  // q = p gives ((p+1)/(p+1))·... = log-value (k·q/(q+1))·(logN/q) where
  // k = p+1 atoms: total = N^{(p+1)/(p+1)} = ... verified numerically below.
  for (int p = 2; p <= 4; ++p) {
    const int k = p + 1;  // cycle length and variable count
    const double log_n = 12.0;
    std::vector<ConcreteStatistic> stats;
    for (int i = 0; i < k; ++i) {
      const VarSet u = VarBit(i), v = VarBit((i + 1) % k);
      stats.push_back(Stat(0, u | v, 1.0, log_n));
      for (int q = 2; q <= p; ++q) {
        stats.push_back(Stat(u, v, q, log_n / q));  // ||deg||_q^q = N
      }
      stats.push_back(Stat(u, v, kInfNorm, log_n / k));
    }
    auto r = ComputeBound("gamma", k, stats);
    ASSERT_TRUE(r.ok());
    // Bound (21) with q = p: each factor ||deg||_p^{p/(p+1)} = N^{1/(p+1)}
    // to the p/(p+1)... total log = k * (p/(p+1)) * (log_n / p).
    const double eq21 = k * (static_cast<double>(p) / (p + 1)) * (log_n / p);
    EXPECT_LE(r.log2_bound, eq21 + 1e-6) << "p=" << p;
    // AGM would be k/2 * log_n; PANDA = log_n + (k-2) log_n/k; both worse.
    EXPECT_LT(r.log2_bound, CycleAgmLog2(log_n, k) - 0.1);
    EXPECT_LT(r.log2_bound,
              CyclePandaLog2(log_n, log_n / k, k) - 0.1);
  }
}

}  // namespace
}  // namespace lpb
