#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "util/random.h"

namespace lpb {
namespace {

TEST(Simplex, TrivialSingleVariable) {
  // max x s.t. x <= 5.
  LpProblem lp(1);
  lp.SetObjective(0, 1.0);
  lp.AddConstraint({{0, 1.0}}, LpSense::kLe, 5.0);
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-9);
  EXPECT_NEAR(r.x[0], 5.0, 1e-9);
}

TEST(Simplex, TwoVariableTextbook) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  ->  opt 36 at (2, 6).
  LpProblem lp(2);
  lp.SetObjective(0, 3.0);
  lp.SetObjective(1, 5.0);
  lp.AddConstraint({{0, 1.0}}, LpSense::kLe, 4.0);
  lp.AddConstraint({{1, 2.0}}, LpSense::kLe, 12.0);
  lp.AddConstraint({{0, 3.0}, {1, 2.0}}, LpSense::kLe, 18.0);
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 36.0, 1e-9);
  EXPECT_NEAR(r.x[0], 2.0, 1e-9);
  EXPECT_NEAR(r.x[1], 6.0, 1e-9);
}

TEST(Simplex, UnboundedDetected) {
  LpProblem lp(2);
  lp.SetObjective(0, 1.0);
  lp.AddConstraint({{1, 1.0}}, LpSense::kLe, 3.0);  // x unconstrained
  LpResult r = SolveLp(lp);
  EXPECT_EQ(r.status, LpStatus::kUnbounded);
}

TEST(Simplex, InfeasibleDetected) {
  // x <= 1 and x >= 2.
  LpProblem lp(1);
  lp.SetObjective(0, 1.0);
  lp.AddConstraint({{0, 1.0}}, LpSense::kLe, 1.0);
  lp.AddConstraint({{0, 1.0}}, LpSense::kGe, 2.0);
  LpResult r = SolveLp(lp);
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(Simplex, EqualityConstraint) {
  // max x + y s.t. x + y = 3, x <= 1  ->  opt 3 (x=1, y=2 or any split).
  LpProblem lp(2);
  lp.SetObjective(0, 1.0);
  lp.SetObjective(1, 1.0);
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, LpSense::kEq, 3.0);
  lp.AddConstraint({{0, 1.0}}, LpSense::kLe, 1.0);
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
  EXPECT_NEAR(r.x[0] + r.x[1], 3.0, 1e-9);
}

TEST(Simplex, GreaterEqualWithPhase1) {
  // min x + y s.t. x + 2y >= 4, 3x + y >= 6  (as max of negation).
  LpProblem lp(2);
  lp.SetObjective(0, -1.0);
  lp.SetObjective(1, -1.0);
  lp.AddConstraint({{0, 1.0}, {1, 2.0}}, LpSense::kGe, 4.0);
  lp.AddConstraint({{0, 3.0}, {1, 1.0}}, LpSense::kGe, 6.0);
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // Optimum at intersection: x = 8/5, y = 6/5, objective -(14/5).
  EXPECT_NEAR(-r.objective, 14.0 / 5.0, 1e-9);
}

TEST(Simplex, NegativeRhsNormalized) {
  // -x <= -2  ==  x >= 2; max -x  ->  x = 2.
  LpProblem lp(1);
  lp.SetObjective(0, -1.0);
  lp.AddConstraint({{0, -1.0}}, LpSense::kLe, -2.0);
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate vertex: several constraints through the origin.
  LpProblem lp(3);
  lp.SetObjective(0, 0.75);
  lp.SetObjective(1, -150.0);
  lp.SetObjective(2, 0.02);
  lp.AddConstraint({{0, 0.25}, {1, -60.0}, {2, -0.04}}, LpSense::kLe, 0.0);
  lp.AddConstraint({{0, 0.5}, {1, -90.0}, {2, -0.02}}, LpSense::kLe, 0.0);
  lp.AddConstraint({{2, 1.0}}, LpSense::kLe, 1.0);
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);  // Bland's rule must kick in
  EXPECT_NEAR(r.objective, 1.0 / 20.0, 1e-6);
}

TEST(Simplex, DualsSatisfyStrongDuality) {
  LpProblem lp(2);
  lp.SetObjective(0, 3.0);
  lp.SetObjective(1, 5.0);
  lp.AddConstraint({{0, 1.0}}, LpSense::kLe, 4.0);
  lp.AddConstraint({{1, 2.0}}, LpSense::kLe, 12.0);
  lp.AddConstraint({{0, 3.0}, {1, 2.0}}, LpSense::kLe, 18.0);
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  double dual_obj = r.duals[0] * 4.0 + r.duals[1] * 12.0 + r.duals[2] * 18.0;
  EXPECT_NEAR(dual_obj, r.objective, 1e-8);
  for (double y : r.duals) EXPECT_GE(y, -1e-9);  // <=-duals nonneg for max
}

TEST(Simplex, DualsOfGeConstraintNonPositive) {
  // max -x s.t. x >= 2: dual of the >= constraint must be <= 0.
  LpProblem lp(1);
  lp.SetObjective(0, -1.0);
  lp.AddConstraint({{0, 1.0}}, LpSense::kGe, 2.0);
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -2.0, 1e-9);
  EXPECT_LE(r.duals[0], 1e-9);
  EXPECT_NEAR(r.duals[0] * 2.0, r.objective, 1e-8);
}

TEST(Simplex, RedundantConstraintsHandled) {
  LpProblem lp(1);
  lp.SetObjective(0, 1.0);
  for (int i = 0; i < 10; ++i) {
    lp.AddConstraint({{0, 1.0}}, LpSense::kLe, 5.0 + i);
  }
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-9);
}

TEST(Simplex, RedundantEqualityRows) {
  // x + y = 2 stated twice; max x s.t. x <= 1.5.
  LpProblem lp(2);
  lp.SetObjective(0, 1.0);
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, LpSense::kEq, 2.0);
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, LpSense::kEq, 2.0);
  lp.AddConstraint({{0, 1.0}}, LpSense::kLe, 1.5);
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.5, 1e-9);
}

TEST(Simplex, ZeroObjectiveFeasibility) {
  LpProblem lp(2);
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, LpSense::kGe, 1.0);
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(Simplex, NoConstraintsZeroObjective) {
  LpProblem lp(3);
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-12);
}

TEST(Simplex, NoConstraintsPositiveObjectiveUnbounded) {
  LpProblem lp(1);
  lp.SetObjective(0, 2.0);
  LpResult r = SolveLp(lp);
  EXPECT_EQ(r.status, LpStatus::kUnbounded);
}

// Property test: random feasible-by-construction LPs — the simplex optimum
// must be >= the value of the known feasible point and its solution must
// satisfy every constraint.
TEST(Simplex, RandomProblemsRespectFeasibilityAndOptimality) {
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng.Uniform(5));
    const int m = 1 + static_cast<int>(rng.Uniform(8));
    // Random known point in [0, 5]^n.
    std::vector<double> point(n);
    for (double& p : point) p = 5.0 * rng.NextDouble();

    LpProblem lp(n);
    for (int j = 0; j < n; ++j) lp.SetObjective(j, rng.NextDouble() * 2.0);
    for (int i = 0; i < m; ++i) {
      std::vector<LpTerm> terms;
      double lhs_at_point = 0.0;
      for (int j = 0; j < n; ++j) {
        double c = rng.NextDouble() * 2.0;  // nonneg coefs keep it bounded
        terms.push_back({j, c});
        lhs_at_point += c * point[j];
      }
      lp.AddConstraint(std::move(terms), LpSense::kLe,
                       lhs_at_point + rng.NextDouble());
    }
    // Bound the box so the LP is bounded even with tiny coefficients.
    for (int j = 0; j < n; ++j) {
      lp.AddConstraint({{j, 1.0}}, LpSense::kLe, 100.0);
    }

    LpResult r = SolveLp(lp);
    ASSERT_EQ(r.status, LpStatus::kOptimal) << "trial " << trial;
    double point_obj = 0.0;
    for (int j = 0; j < n; ++j) point_obj += lp.objective_coef(j) * point[j];
    EXPECT_GE(r.objective, point_obj - 1e-7) << "trial " << trial;
    for (int i = 0; i < lp.num_constraints(); ++i) {
      EXPECT_LE(lp.EvalLhs(i, r.x), lp.constraint(i).rhs + 1e-6)
          << "trial " << trial << " constraint " << i;
    }
    // Strong duality: y'b == c'x*.
    double dual_obj = 0.0;
    for (int i = 0; i < lp.num_constraints(); ++i) {
      dual_obj += r.duals[i] * lp.constraint(i).rhs;
    }
    EXPECT_NEAR(dual_obj, r.objective, 1e-5) << "trial " << trial;
  }
}

TEST(LpProblem, EvalLhs) {
  LpProblem lp(2);
  int c = lp.AddConstraint({{0, 2.0}, {1, -1.0}}, LpSense::kLe, 1.0);
  EXPECT_NEAR(lp.EvalLhs(c, {3.0, 4.0}), 2.0, 1e-12);
}

TEST(Simplex, HomogeneousGeRowsNeedNoPhase1) {
  // max x + y s.t. x - y >= 0, x <= 3, y <= 3: the homogeneous >= row is
  // converted to a <= row with a slack basis (no artificial variable).
  LpProblem lp(2);
  lp.SetObjective(0, 1.0);
  lp.SetObjective(1, 1.0);
  lp.AddConstraint({{0, 1.0}, {1, -1.0}}, LpSense::kGe, 0.0);
  lp.AddConstraint({{0, 1.0}}, LpSense::kLe, 3.0);
  lp.AddConstraint({{1, 1.0}}, LpSense::kLe, 3.0);
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 6.0, 1e-9);
}

TEST(Simplex, ManyHomogeneousRowsDegenerateOrigin) {
  // A cutting-plane-shaped LP: dozens of homogeneous rows all tight at the
  // origin. The lexicographic ratio test must terminate and find the
  // optimum.
  Rng rng(123);
  const int n = 6;
  LpProblem lp(n);
  for (int j = 0; j < n; ++j) lp.SetObjective(j, 1.0);
  for (int i = 0; i < 60; ++i) {
    std::vector<LpTerm> terms;
    for (int j = 0; j < n; ++j) {
      terms.push_back({j, rng.NextDouble() * 2.0 - 1.0});
    }
    lp.AddConstraint(std::move(terms), LpSense::kGe, 0.0);
  }
  for (int j = 0; j < n; ++j) {
    lp.AddConstraint({{j, 1.0}}, LpSense::kLe, 1.0);
  }
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_GE(r.objective, -1e-9);
  EXPECT_LE(r.objective, 6.0 + 1e-9);
  for (int i = 0; i < lp.num_constraints(); ++i) {
    double slackish = lp.constraint(i).sense == LpSense::kGe
                          ? lp.EvalLhs(i, r.x) - lp.constraint(i).rhs
                          : lp.constraint(i).rhs - lp.EvalLhs(i, r.x);
    EXPECT_GE(slackish, -1e-7) << "constraint " << i;
  }
}

TEST(Simplex, EqualityWithNegativeRhs) {
  // -x - y = -3 normalizes to x + y = 3.
  LpProblem lp(2);
  lp.SetObjective(0, 1.0);
  lp.AddConstraint({{0, -1.0}, {1, -1.0}}, LpSense::kEq, -3.0);
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
}

TEST(Simplex, DualOfEqualityConstraint) {
  // max 2x s.t. x + y = 5 (dual should certify 2*5): y* = 2.
  LpProblem lp(2);
  lp.SetObjective(0, 2.0);
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, LpSense::kEq, 5.0);
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 10.0, 1e-9);
  EXPECT_NEAR(r.duals[0] * 5.0, r.objective, 1e-8);
}

TEST(Simplex, LargeSparseChainScales) {
  // A 400-variable chain: x_i - x_{i+1} >= 0, x_0 <= 1; max x_399.
  const int n = 400;
  LpProblem lp(n);
  lp.SetObjective(n - 1, 1.0);
  lp.AddConstraint({{0, 1.0}}, LpSense::kLe, 1.0);
  for (int i = 0; i + 1 < n; ++i) {
    lp.AddConstraint({{i, 1.0}, {i + 1, -1.0}}, LpSense::kGe, 0.0);
  }
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-7);
}

TEST(Simplex, MixedSenseSystem) {
  // max x + 2y + 3z s.t. x + y + z = 10, x - y >= 2, z <= 4.
  LpProblem lp(3);
  lp.SetObjective(0, 1.0);
  lp.SetObjective(1, 2.0);
  lp.SetObjective(2, 3.0);
  lp.AddConstraint({{0, 1.0}, {1, 1.0}, {2, 1.0}}, LpSense::kEq, 10.0);
  lp.AddConstraint({{0, 1.0}, {1, -1.0}}, LpSense::kGe, 2.0);
  lp.AddConstraint({{2, 1.0}}, LpSense::kLe, 4.0);
  LpResult r = SolveLp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // Optimum: z = 4, then max x + 2y with x + y = 6, x - y >= 2 -> x = 4,
  // y = 2: 4 + 4 + 12 = 20.
  EXPECT_NEAR(r.objective, 20.0, 1e-8);
}

}  // namespace
}  // namespace lpb
