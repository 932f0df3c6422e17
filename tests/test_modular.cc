// Appendix B: the modular bound (the Jayaraman et al. LP) vs the
// polymatroid bound, Example B.1's unsoundness on short cycles, and
// Theorem B.2's equality under the girth condition.
#include <gtest/gtest.h>

#include <cmath>

#include "bounds/bound_engine.h"
#include "bounds/modular.h"
#include "exec/generic_join.h"
#include "query/hypergraph.h"
#include "query/parser.h"
#include "relation/catalog.h"
#include "stats/collector.h"

namespace lpb {
namespace {

ConcreteStatistic Stat(VarSet u, VarSet v, double p, double log_b) {
  ConcreteStatistic s;
  s.sigma = {u, v};
  s.p = p;
  s.log_b = log_b;
  return s;
}

TEST(Modular, NeverExceedsGammaBound) {
  // Mn ⊂ Γn: the modular optimum is a lower bound on the Γn optimum.
  std::vector<ConcreteStatistic> stats = {
      Stat(0, 0b011, 1.0, 8.0),
      Stat(0b001, 0b010, 2.0, 3.0),
      Stat(0b010, 0b100, 3.0, 4.0),
  };
  auto mod = ModularBound(3, stats);
  auto poly = ComputeBound("gamma", 3, stats);
  ASSERT_TRUE(mod.base.ok());
  ASSERT_TRUE(poly.ok());
  EXPECT_LE(mod.base.log2_bound, poly.log2_bound + 1e-7);
}

TEST(Modular, WeightsReconstructOptimum) {
  std::vector<ConcreteStatistic> stats = {
      Stat(0, 0b011, 1.0, 8.0), Stat(0b010, 0b100, 2.0, 3.0)};
  auto mod = ModularBound(3, stats);
  ASSERT_TRUE(mod.base.ok());
  double total = 0.0;
  for (double w : mod.var_weights) total += w;
  EXPECT_NEAR(total, mod.base.log2_bound, 1e-9);
}

TEST(Modular, ExampleB1TwoCycleIsUnsound) {
  // Q(U,V) = R(U,V) ∧ S(V,U) with p = 2 and R = S = diagonal of size N:
  // the modular LP certifies N^{2/3}, but |Q| = N. (Girth 2 < p + 1 = 3.)
  const double log_n = 8.0;  // N = 256
  // ||deg_R(V|U)||_2 = sqrt(N): log = log_n / 2.
  std::vector<ConcreteStatistic> stats = {
      Stat(0b01, 0b10, 2.0, log_n / 2),  // deg_R(V|U)
      Stat(0b10, 0b01, 2.0, log_n / 2),  // deg_S(U|V)
  };
  auto mod = ModularBound(2, stats);
  ASSERT_TRUE(mod.base.ok());
  EXPECT_NEAR(mod.base.log2_bound, 2.0 * log_n / 3.0, 1e-6);

  // The actual diagonal instance beats the modular "bound".
  Catalog db;
  Relation r("R", {"u", "v"});
  for (Value i = 0; i < 256; ++i) r.AddRow({i, i});
  Relation s = r;
  s.set_name("S");
  db.Add(std::move(r));
  db.Add(std::move(s));
  Query q = *ParseQuery("R(U,V), S(V,U)");
  const uint64_t truth = CountJoin(q, db);
  EXPECT_EQ(truth, 256u);
  EXPECT_GT(std::log2(static_cast<double>(truth)),
            mod.base.log2_bound + 1.0);

  // The polymatroid bound is sound on the same statistics.
  auto poly = ComputeBound("gamma", 2, stats);
  ASSERT_TRUE(poly.ok());
  EXPECT_GE(poly.log2_bound,
            std::log2(static_cast<double>(truth)) - 1e-6);
}

TEST(Modular, TheoremB2GirthConditionRestoresEquality) {
  // Triangle (girth 3) with p = 2 statistics: girth >= p + 1, so the
  // modular and polymatroid bounds coincide.
  const double b = 4.0;
  std::vector<ConcreteStatistic> tri = {
      Stat(0b001, 0b010, 2.0, b),
      Stat(0b010, 0b100, 2.0, b),
      Stat(0b100, 0b001, 2.0, b),
  };
  auto mod = ModularBound(3, tri);
  auto poly = ComputeBound("gamma", 3, tri);
  ASSERT_TRUE(mod.base.ok() && poly.ok());
  EXPECT_NEAR(mod.base.log2_bound, poly.log2_bound, 1e-6);

  // 4-cycle with p = 3: girth 4 >= p + 1.
  std::vector<ConcreteStatistic> cyc4;
  for (int i = 0; i < 4; ++i) {
    cyc4.push_back(Stat(VarBit(i), VarBit((i + 1) % 4), 3.0, b));
  }
  auto mod4 = ModularBound(4, cyc4);
  auto poly4 = ComputeBound("gamma", 4, cyc4);
  ASSERT_TRUE(mod4.base.ok() && poly4.ok());
  EXPECT_NEAR(mod4.base.log2_bound, poly4.log2_bound, 1e-6);
}

TEST(Modular, TriangleWithL3ViolatesGirthAndSplits) {
  // Triangle (girth 3) with p = 3 statistics: girth < p + 1, the modular
  // bound drops strictly below the polymatroid bound (Example 2.3's ℓ3
  // regime needs girth 4).
  const double b = 4.0;
  std::vector<ConcreteStatistic> tri;
  for (int i = 0; i < 3; ++i) {
    tri.push_back(Stat(VarBit(i), VarBit((i + 1) % 3), 3.0, b));
  }
  auto mod = ModularBound(3, tri);
  auto poly = ComputeBound("gamma", 3, tri);
  ASSERT_TRUE(mod.base.ok() && poly.ok());
  EXPECT_LT(mod.base.log2_bound, poly.log2_bound - 0.1);
}

TEST(Modular, GirthHelperAgreesWithHypergraph) {
  Query tri = *ParseQuery("R(X,Y), S(Y,Z), T(Z,X)");
  EXPECT_EQ(Hypergraph(tri).BinaryGirth(), 3);
  Query two = *ParseQuery("R(U,V), S(V,U)");
  EXPECT_EQ(Hypergraph(two).BinaryGirth(), 2);
}

TEST(Modular, UnboundedWithoutCoverage) {
  auto mod = ModularBound(2, {Stat(0, 0b01, 1.0, 3.0)});
  EXPECT_TRUE(mod.base.unbounded());
}

TEST(Modular, MeasuredStatisticsStayBelowPolymatroid) {
  // On real data with mixed norms the ordering Mn <= Nn/Γn always holds.
  Catalog db;
  Relation r("R", {"x", "y"});
  for (Value i = 0; i < 40; ++i) {
    r.AddRow({i % 7, i});
    r.AddRow({i % 5, 100 + i});
  }
  db.Add(std::move(r));
  Query q = *ParseQuery("R(X,Y), R(Y,Z)");
  CollectorOptions opt;
  opt.norms = {1.0, 2.0, 3.0, kInfNorm};
  auto stats = CollectStatistics(q, db, opt);
  auto mod = ModularBound(q.num_vars(), stats);
  auto poly = ComputeBound("gamma", q.num_vars(), stats);
  ASSERT_TRUE(mod.base.ok() && poly.ok());
  EXPECT_LE(mod.base.log2_bound, poly.log2_bound + 1e-7);
}

}  // namespace
}  // namespace lpb
