#include <gtest/gtest.h>

#include <cmath>

#include "bounds/bound_engine.h"
#include "bounds/worst_case.h"
#include "entropy/relation_entropy.h"
#include "entropy/set_function.h"
#include "exec/generic_join.h"
#include "query/parser.h"
#include "stats/collector.h"
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

TEST(WorstCase, BasicNormalRelationShape) {
  // Example 6.6: T^{X,Z}_N over (X,Y,Z).
  Relation t = BasicNormalRelation({"X", "Y", "Z"}, 0b101, 4);
  EXPECT_EQ(t.NumRows(), 4u);
  EXPECT_EQ(t.At(2, 0), 2u);
  EXPECT_EQ(t.At(2, 1), 0u);
  EXPECT_EQ(t.At(2, 2), 2u);
}

TEST(WorstCase, BasicNormalRelationIsTotallyUniform) {
  // Proposition 6.5 (1).
  for (VarSet w = 1; w < 8; ++w) {
    EXPECT_TRUE(IsTotallyUniform(BasicNormalRelation({"A", "B", "C"}, w, 5)));
  }
}

TEST(WorstCase, BasicNormalRelationEntropyIsScaledStep) {
  // Proposition 6.5 (2): h_{T^W_N} = log2(N) · h_W.
  const VarSet w = 0b011;
  Relation t = BasicNormalRelation({"A", "B", "C"}, w, 8);
  SetFunction h = EntropyOfRelation(t);
  SetFunction expected = 3.0 * SetFunction::Step(3, w);
  EXPECT_LT(h.MaxDiff(expected), 1e-9);
}

TEST(WorstCase, DomainProductMultipliesSizesAndAddsEntropies) {
  // Eq. (38).
  Relation t1 = BasicNormalRelation({"A", "B"}, 0b01, 3);
  Relation t2 = BasicNormalRelation({"A", "B"}, 0b11, 4);
  Relation prod = DomainProduct(t1, t2);
  EXPECT_EQ(prod.NumRows(), 12u);
  SetFunction h = EntropyOfRelation(prod);
  SetFunction expected =
      EntropyOfRelation(t1) + EntropyOfRelation(t2);
  EXPECT_LT(h.MaxDiff(expected), 1e-9);
  EXPECT_TRUE(IsTotallyUniform(prod));
}

TEST(WorstCase, Example66NormalRelations) {
  // T1 = product of three singleton steps = full cube, |T1| = N^3;
  // T2 = diagonal, |T2| = N; T3 = T^{XY} ⊗ T^{YZ}, |T3| = N^2.
  const uint64_t n = 3;
  std::vector<std::string> attrs = {"X", "Y", "Z"};
  Relation t1 = DomainProduct(
      DomainProduct(BasicNormalRelation(attrs, 0b001, n),
                    BasicNormalRelation(attrs, 0b010, n)),
      BasicNormalRelation(attrs, 0b100, n));
  EXPECT_EQ(t1.NumRows(), n * n * n);
  Relation t2 = BasicNormalRelation(attrs, 0b111, n);
  EXPECT_EQ(t2.NumRows(), n);
  Relation t3 = DomainProduct(BasicNormalRelation(attrs, 0b011, n),
                              BasicNormalRelation(attrs, 0b110, n));
  EXPECT_EQ(t3.NumRows(), n * n);
}

TEST(WorstCase, Example67WorstCaseInstanceAchievesBound) {
  // Example 6.7: optimal solution is α* = b · h_{XYZ}; the normal database
  // is the diagonal and |Q(D)| = ⌊2^b⌋ >= B/2.
  Query q = *ParseQuery(
      "R1(X,Y), R2(Y,Z), R3(Z,X), S1(X), S2(Y), S3(Z)");
  const double b = 6.0;
  std::vector<ConcreteStatistic> stats = {
      Stat(VarBit(q.VarIndex("X")), VarBit(q.VarIndex("Y")), 4.0, b / 4),
      Stat(VarBit(q.VarIndex("Y")), VarBit(q.VarIndex("Z")), 4.0, b / 4),
      Stat(VarBit(q.VarIndex("Z")), VarBit(q.VarIndex("X")), 4.0, b / 4),
      Stat(0, VarBit(q.VarIndex("X")), 1.0, b),
      Stat(0, VarBit(q.VarIndex("Y")), 1.0, b),
      Stat(0, VarBit(q.VarIndex("Z")), 1.0, b),
  };
  auto bound = ComputeBound("normal", q.num_vars(), stats);
  ASSERT_TRUE(bound.ok());
  EXPECT_NEAR(bound.log2_bound, b, 1e-6);

  WorstCaseInstance wc = BuildWorstCaseDatabase(q, bound.alpha);
  const uint64_t count = CountJoin(q, wc.database);
  // Tightness within the rounding constant: |Q(D)| >= 2^{bound}/2^c, c = 1.
  EXPECT_GE(static_cast<double>(count),
            std::exp2(bound.log2_bound) / 2.0 - 1e-6);
  EXPECT_EQ(count, wc.witness.NumRows());
}

TEST(WorstCase, DatabaseSatisfiesTheStatistics) {
  // Corollary 6.3's feasibility half: the projections satisfy (Σ, B).
  Query q = *ParseQuery("R(X,Y), S(Y,Z)");
  std::vector<ConcreteStatistic> stats = {
      Stat(0, 0b011, 1.0, 6.0),
      Stat(0, 0b110, 1.0, 6.0),
      Stat(0b010, 0b001, 2.0, 4.0),
      Stat(0b010, 0b100, 2.0, 4.0),
  };
  auto bound = ComputeBound("normal", q.num_vars(), stats);
  ASSERT_TRUE(bound.ok());
  WorstCaseInstance wc = BuildWorstCaseDatabase(q, bound.alpha);
  for (const auto& s : stats) {
    // Identify the guarding atom by variable containment.
    for (int a = 0; a < q.num_atoms(); ++a) {
      if (!IsSubset(s.sigma.All(), q.atom(a).var_set())) continue;
      const double measured =
          MeasureLog2Norm(q, a, wc.database, s.sigma, s.p);
      EXPECT_LE(measured, s.log_b + 1e-6) << ToString(s, q);
    }
  }
  // And the join achieves the bound within the 2^c constant (c <= #steps).
  const double count = static_cast<double>(CountJoin(q, wc.database));
  EXPECT_GE(std::log2(count + 0.5), bound.log2_bound - 2.0);
}

TEST(WorstCase, SingleJoinSelfJoinFreeTightness) {
  // ℓ2-only single join: bound = b1 + b2; worst case database must reach it
  // up to rounding.
  Query q = *ParseQuery("R(X,Y), S(Y,Z)");
  std::vector<ConcreteStatistic> stats = {
      Stat(0b010, 0b001, 2.0, 3.0),
      Stat(0b010, 0b100, 2.0, 3.0),
  };
  auto bound = ComputeBound("normal", q.num_vars(), stats);
  ASSERT_TRUE(bound.ok());
  EXPECT_NEAR(bound.log2_bound, 6.0, 1e-6);
  WorstCaseInstance wc = BuildWorstCaseDatabase(q, bound.alpha);
  const double count = static_cast<double>(CountJoin(q, wc.database));
  EXPECT_GE(std::log2(count), bound.log2_bound - 2.0);
}

TEST(WorstCase, ChainQueryTightness) {
  // 4-variable chain with mixed ℓ1/ℓ2/ℓ∞ simple statistics: the worst-case
  // database must achieve the bound within the rounding constant 2^c,
  // c = #nonzero step coefficients (here <= 4 after basic-solution
  // sparsity).
  Query q = *ParseQuery("R(X1,X2), S(X2,X3), T(X3,X4)");
  std::vector<ConcreteStatistic> stats;
  auto var = [&](const char* name) { return VarBit(q.VarIndex(name)); };
  stats.push_back(Stat(0, var("X1") | var("X2"), 1.0, 8.0));
  stats.push_back(Stat(var("X2"), var("X3"), 2.0, 3.0));
  stats.push_back(Stat(var("X3"), var("X4"), kInfNorm, 2.0));
  auto bound = ComputeBound("normal", q.num_vars(), stats);
  ASSERT_TRUE(bound.ok());
  WorstCaseInstance wc = BuildWorstCaseDatabase(q, bound.alpha);
  // Feasibility of the witness database.
  for (const auto& s : stats) {
    for (int a = 0; a < q.num_atoms(); ++a) {
      if (!IsSubset(s.sigma.All(), q.atom(a).var_set())) continue;
      EXPECT_LE(MeasureLog2Norm(q, a, wc.database, s.sigma, s.p),
                s.log_b + 1e-6)
          << ToString(s, q);
    }
  }
  const double count = static_cast<double>(CountJoin(q, wc.database));
  ASSERT_GT(count, 0.0);
  EXPECT_GE(std::log2(count), bound.log2_bound - 4.0);
}

TEST(WorstCase, AmplifiedStatisticsShrinkRelativeRoundingLoss) {
  // Corollary 6.3 is "within a query-dependent constant": amplifying the
  // statistics (k·b) makes the achieved/bound ratio approach 1 in the log.
  Query q = *ParseQuery("R(X,Y), S(Y,Z)");
  double prev_relative = 1e9;
  for (double k : {1.0, 2.0, 4.0}) {
    std::vector<ConcreteStatistic> stats = {
        Stat(0b010, 0b001, 2.0, 1.3 * k),
        Stat(0b010, 0b100, 2.0, 1.1 * k),
    };
    auto bound = ComputeBound("normal", q.num_vars(), stats);
    ASSERT_TRUE(bound.ok());
    WorstCaseInstance wc = BuildWorstCaseDatabase(q, bound.alpha);
    const double count = static_cast<double>(CountJoin(q, wc.database));
    ASSERT_GT(count, 0.0);
    const double gap = bound.log2_bound - std::log2(count);
    EXPECT_GE(gap, -1e-9);  // the database never exceeds the bound
    // Each of the <= 2 step coefficients loses < 1 bit to ⌊2^α⌋ rounding.
    EXPECT_LE(gap, 2.0);
    const double relative = gap / bound.log2_bound;
    EXPECT_LE(relative, prev_relative + 1e-9) << "k=" << k;
    prev_relative = relative;
  }
  EXPECT_LT(prev_relative, 0.1);
}

TEST(WorstCase, CompiledAlphaBuildsLemma62Database) {
  // α* read straight off a compiled normal-engine Evaluate feeds Lemma 6.2:
  // 2^{h*(X) - c} <= |Q(D)| <= 2^{h*(X)}, c = #nonzero α*_W (each step
  // loses < 1 bit to ⌊2^α⌋ rounding; D satisfies the statistics, so the
  // bound caps it). Statistics are random, simple and atom-guarded.
  Rng rng(62);
  const double norms[] = {1.0, 2.0, 3.0, kInfNorm};
  for (const char* text : {"R(X,Y), S(Y,Z)", "R(X,Y), S(Y,Z), T(Z,X)",
                           "R(X1,X2), S(X2,X3), T(X3,X4)"}) {
    const Query q = *ParseQuery(text);
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<ConcreteStatistic> stats;
      for (const Atom& atom : q.atoms()) {
        const VarSet vars = atom.var_set();
        stats.push_back(Stat(0, vars, 1.0, 3.0 + 5.0 * rng.NextDouble()));
        for (int u : VarRange(vars)) {
          stats.push_back(Stat(VarBit(u), vars & ~VarBit(u),
                               norms[rng.Uniform(4)],
                               1.0 + 3.0 * rng.NextDouble()));
        }
      }
      const std::string context = std::string(text) + " trial " +
                                  std::to_string(trial);
      auto compiled =
          FindBoundEngine("normal")->Compile(StructureOf(q.num_vars(), stats));
      const BoundResult bound = compiled->Evaluate(ValuesOf(stats));
      ASSERT_TRUE(bound.ok()) << context;
      int steps = 0;
      for (double a : bound.alpha) steps += a > 1e-9 ? 1 : 0;
      WorstCaseInstance wc = BuildWorstCaseDatabase(q, bound.alpha);
      const uint64_t count = CountJoin(q, wc.database);
      ASSERT_GT(count, 0u) << context;
      const double log2_count = std::log2(static_cast<double>(count));
      EXPECT_GE(log2_count, bound.log2_bound - steps - 1e-6) << context;
      EXPECT_LE(log2_count, bound.log2_bound + 1e-6) << context;
    }
  }
}

TEST(WorstCase, ProductDatabaseIsAsymptoticallyWorse) {
  // Example 6.7's second half: any product database obeying the ℓ4
  // statistics has |Q| <= B^{3/5} ≪ B. Verify the normal instance beats the
  // best product instance (N_X = N_Y = N_Z = B^{1/5}).
  const double b = 10.0;  // B = 1024
  const double product_best = std::exp2(3.0 * b / 5.0);
  const double normal_db = std::exp2(b) / 2.0;
  EXPECT_GT(normal_db, product_best * 4.0);
}

}  // namespace
}  // namespace lpb
