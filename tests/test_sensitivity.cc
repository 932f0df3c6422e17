// Sensitivity analysis and the estimator-comparison facade.
#include <gtest/gtest.h>

#include <cmath>

#include "bounds/bound_engine.h"
#include "bounds/sensitivity.h"
#include "estimator/comparison.h"
#include "exec/generic_join.h"
#include "query/parser.h"
#include "relation/catalog.h"
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

TEST(Sensitivity, BindingStatisticsCarryTheWeight) {
  // Single join ℓ2 bound: both statistics are binding with weight 1; a
  // deliberately loose cardinality statistic has slack and weight 0.
  std::vector<ConcreteStatistic> stats = {
      Stat(0b010, 0b001, 2.0, 3.0),
      Stat(0b010, 0b100, 2.0, 3.0),
      Stat(0, 0b011, 1.0, 50.0),  // uselessly loose
  };
  auto bound = ComputeBound("gamma", 3, stats);
  ASSERT_TRUE(bound.ok());
  auto entries = AnalyzeSensitivity(bound, stats);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_NEAR(entries[0].weight, 1.0, 1e-6);
  EXPECT_NEAR(entries[1].weight, 1.0, 1e-6);
  EXPECT_NEAR(entries[2].weight, 0.0, 1e-6);
  EXPECT_TRUE(entries[0].binding);
  EXPECT_TRUE(entries[1].binding);
  EXPECT_FALSE(entries[2].binding);
  EXPECT_GT(entries[2].slack, 10.0);
}

TEST(Sensitivity, WeightsPredictBoundChange) {
  // Tightening a statistic by delta lowers the bound by ~weight * delta
  // (exactly, while the basis stays optimal).
  std::vector<ConcreteStatistic> stats = {
      Stat(0b010, 0b001, 2.0, 3.0),
      Stat(0b010, 0b100, 2.0, 4.0),
  };
  auto before = ComputeBound("gamma", 3, stats);
  ASSERT_TRUE(before.ok());
  auto entries = AnalyzeSensitivity(before, stats);
  const double delta = 0.25;
  stats[0].log_b -= delta;
  auto after = ComputeBound("gamma", 3, stats);
  ASSERT_TRUE(after.ok());
  EXPECT_NEAR(after.log2_bound,
              before.log2_bound - entries[0].weight * delta, 1e-6);
}

TEST(Sensitivity, SlackIsNonNegativeAtOptimum) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<ConcreteStatistic> stats;
    for (int i = 0; i < 3; ++i) {
      stats.push_back(Stat(0, VarBit(i) | VarBit((i + 1) % 3), 1.0,
                           4.0 + 4.0 * rng.NextDouble()));
      stats.push_back(Stat(VarBit(i), VarBit((i + 1) % 3),
                           1.0 + rng.Uniform(3), 1.0 + rng.NextDouble()));
    }
    auto bound = ComputeBound("gamma", 3, stats);
    ASSERT_TRUE(bound.ok());
    for (const auto& e : AnalyzeSensitivity(bound, stats)) {
      EXPECT_GE(e.slack, -1e-6);
      EXPECT_GE(e.weight, -1e-6);
    }
  }
}

TEST(Sensitivity, FormatListsBindingFirst) {
  std::vector<ConcreteStatistic> stats = {
      Stat(0b010, 0b001, 2.0, 3.0),
      Stat(0, 0b011, 1.0, 50.0),
      Stat(0b010, 0b100, 2.0, 3.0),
  };
  stats[0].label = "R: (X|Y) p=2";
  stats[1].label = "R: card";
  stats[2].label = "S: (Z|Y) p=2";
  auto bound = ComputeBound("gamma", 3, stats);
  ASSERT_TRUE(bound.ok());
  std::string report =
      FormatSensitivity(AnalyzeSensitivity(bound, stats), stats);
  // The two binding statistics come before the slack one.
  EXPECT_LT(report.find("R: (X|Y)"), report.find("R: card"));
  EXPECT_LT(report.find("S: (Z|Y)"), report.find("R: card"));
  EXPECT_NE(report.find("[binding]"), std::string::npos);
}

Catalog JoinDb() {
  Catalog db;
  Relation r("R", {"x", "y"});
  Relation s("S", {"y", "z"});
  Rng rng(7);
  for (int i = 0; i < 120; ++i) {
    r.AddRow({rng.Uniform(40), rng.Uniform(12)});
    s.AddRow({rng.Uniform(12), rng.Uniform(40)});
  }
  r.Deduplicate();
  s.Deduplicate();
  db.Add(std::move(r));
  db.Add(std::move(s));
  return db;
}

TEST(Comparison, ReportsAllEstimators) {
  Catalog db = JoinDb();
  Query q = *ParseQuery("R(X,Y), S(Y,Z)");
  auto reports = CompareEstimators(q, db);
  // true, AGM, PANDA, lp, traditional, DSB (single join on Y).
  ASSERT_EQ(reports.size(), 6u);
  EXPECT_EQ(reports[0].name, "true");
  double truth = reports[0].log2_value;
  for (const auto& r : reports) {
    if (r.is_upper_bound) {
      EXPECT_GE(r.log2_value, truth - 1e-6) << r.name;
    }
  }
}

TEST(Comparison, DsbOmittedForNonSingleJoins) {
  Catalog db = JoinDb();
  Relation t("T", {"z", "w"});
  t.AddRow({1, 2});
  db.Add(std::move(t));
  Query q = *ParseQuery("R(X,Y), S(Y,Z), T(Z,W)");
  auto reports = CompareEstimators(q, db);
  for (const auto& r : reports) EXPECT_NE(r.name, "DSB");
}

TEST(Comparison, TruthCanBeSkipped) {
  Catalog db = JoinDb();
  Query q = *ParseQuery("R(X,Y), S(Y,Z)");
  ComparisonOptions opt;
  opt.include_truth = false;
  auto reports = CompareEstimators(q, db, opt);
  for (const auto& r : reports) EXPECT_NE(r.name, "true");
}

TEST(Comparison, FormatIsHumanReadable) {
  Catalog db = JoinDb();
  Query q = *ParseQuery("R(X,Y), S(Y,Z)");
  std::string table = FormatComparison(CompareEstimators(q, db));
  EXPECT_NE(table.find("lp-norm bound"), std::string::npos);
  EXPECT_NE(table.find("(bound)"), std::string::npos);
  EXPECT_NE(table.find("x truth"), std::string::npos);
}

TEST(Comparison, OrderingLpBelowPandaBelowAgm) {
  Catalog db = JoinDb();
  Query q = *ParseQuery("R(X,Y), S(Y,Z)");
  auto reports = CompareEstimators(q, db);
  double agm = 0, panda = 0, lp = 0;
  for (const auto& r : reports) {
    if (r.name == "AGM {1}") agm = r.log2_value;
    if (r.name == "PANDA {1,inf}") panda = r.log2_value;
    if (r.name == "lp-norm bound") lp = r.log2_value;
  }
  EXPECT_LE(lp, panda + 1e-6);
  EXPECT_LE(panda, agm + 1e-6);
}

}  // namespace
}  // namespace lpb
