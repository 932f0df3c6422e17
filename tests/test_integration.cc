// End-to-end property tests tying statistics collection, the bound engines,
// the estimators and the evaluators together. The headline property is the
// paper's Theorem 1.1: for every database and every statistics set,
// |Q(D)| <= 2^{polymatroid bound}.
#include <gtest/gtest.h>

#include <cmath>

#include "bounds/agm.h"
#include "bounds/bound_engine.h"
#include "datagen/alpha_beta.h"
#include "datagen/graph_gen.h"
#include "datagen/job_gen.h"
#include "estimator/dsb.h"
#include "estimator/traditional.h"
#include "relation/compressed_sequence.h"
#include "exec/generic_join.h"
#include "query/parser.h"
#include "stats/collector.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lpb {
namespace {

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.has_value());
  return *q;
}

double Log2Count(uint64_t count) {
  return count == 0 ? -1.0 : std::log2(static_cast<double>(count));
}

Catalog RandomDb(Rng& rng, const std::vector<std::string>& names, int rows,
                 int domain, double skew) {
  Catalog db;
  ZipfSampler zipf(domain, skew);
  for (const std::string& name : names) {
    Relation r(name, {"a", "b"});
    for (int i = 0; i < rows; ++i) {
      r.AddRow({zipf.Sample(rng), zipf.Sample(rng)});
    }
    r.Deduplicate();
    db.Add(std::move(r));
  }
  return db;
}

// --- Soundness: bound >= truth, for every engine and statistics set -------

TEST(Soundness, RandomDatabasesAllQueries) {
  Rng rng(2024);
  const std::vector<std::string> query_texts = {
      "R(X,Y), S(Y,Z)",
      "R(X,Y), S(Y,Z), T(Z,X)",
      "R(X,Y), S(Y,Z), T(Z,W)",
      "R(X,Y), S(Y,Z), T(Z,W), R(W,U)",
      "R(X,Y), R(Y,Z)",
      "R(X,Y), R(Y,X)",
  };
  for (int trial = 0; trial < 12; ++trial) {
    Catalog db = RandomDb(rng, {"R", "S", "T"}, 60 + trial * 15, 12,
                          0.3 + 0.05 * (trial % 5));
    for (const std::string& text : query_texts) {
      Query q = Parse(text);
      const uint64_t truth = CountJoin(q, db);
      CollectorOptions opt;
      opt.norms = {1.0, 2.0, 3.0, kInfNorm};
      auto stats = CollectStatistics(q, db, opt);
      auto bound = ComputeBound("gamma", q.num_vars(), stats);
      ASSERT_TRUE(bound.ok()) << text;
      EXPECT_GE(bound.log2_bound, Log2Count(truth) - 1e-6)
          << text << " trial " << trial;
      // Theorem 6.1 cross-check on the same inputs.
      auto normal = ComputeBound("normal", q.num_vars(), stats);
      ASSERT_TRUE(normal.ok());
      EXPECT_NEAR(normal.log2_bound, bound.log2_bound, 1e-5) << text;
    }
  }
}

TEST(Soundness, BoundHierarchyAgmPandaOurs) {
  // {1} ⊇ {1,∞} ⊇ {1..p,∞} statistic sets give non-increasing bounds, and
  // all dominate the truth.
  Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    Catalog db = RandomDb(rng, {"R", "S", "T"}, 120, 15, 0.5);
    Query q = Parse("R(X,Y), S(Y,Z), T(Z,X)");
    CollectorOptions opt;
    opt.norms = {1.0, 2.0, 3.0, 4.0, kInfNorm};
    auto stats = CollectStatistics(q, db, opt);
    auto agm = ComputeBound("agm", q.num_vars(), stats);
    auto panda = ComputeBound("panda", q.num_vars(), stats);
    auto ours = ComputeBound("gamma", q.num_vars(), stats);
    ASSERT_TRUE(agm.ok() && panda.ok() && ours.ok());
    const double truth = Log2Count(CountJoin(q, db));
    EXPECT_GE(ours.log2_bound, truth - 1e-6);
    EXPECT_LE(ours.log2_bound, panda.log2_bound + 1e-6);
    EXPECT_LE(panda.log2_bound, agm.log2_bound + 1e-6);
    // The independent AGM LP agrees with the engine restriction.
    AgmResult direct = AgmBound(q, db);
    EXPECT_NEAR(direct.log2_bound, agm.log2_bound, 1e-5);
  }
}

TEST(Soundness, PowerLawGraphTriangle) {
  GraphSpec spec;
  spec.num_nodes = 800;
  spec.num_edges = 4000;
  spec.zipf_theta = 0.85;
  Catalog db;
  Relation g = GeneratePowerLawGraph(spec);
  g.set_name("E");
  db.Add(std::move(g));
  Query q = Parse("E(X,Y), E(Y,Z), E(Z,X)");
  CollectorOptions opt;
  opt.norms = {1.0, 2.0, 3.0, kInfNorm};
  auto stats = CollectStatistics(q, db, opt);
  auto bound = ComputeBound("auto", q.num_vars(), stats);
  ASSERT_TRUE(bound.ok());
  const uint64_t truth = CountJoin(q, db);
  EXPECT_GE(bound.log2_bound, Log2Count(truth) - 1e-6);
  // And the ℓ2 bound beats AGM on a skewed graph.
  auto agm = ComputeBound("agm", q.num_vars(), stats);
  EXPECT_LT(bound.log2_bound, agm.log2_bound);
}

TEST(Soundness, SelfJoinL2IsExact) {
  // Example 2.1: for Q = R(X,Y) ∧ R(Z,Y), the ℓ2-bound is exactly |Q|.
  Rng rng(31);
  Catalog db = RandomDb(rng, {"R"}, 150, 20, 0.6);
  Query q = Parse("R(X,Y), R(Z,Y)");
  CollectorOptions opt;
  opt.norms = {2.0};
  opt.include_cardinalities = false;
  auto stats = CollectStatistics(q, db, opt);
  auto bound = ComputeBound("auto", q.num_vars(), stats);
  ASSERT_TRUE(bound.ok());
  EXPECT_NEAR(bound.log2_bound, Log2Count(CountJoin(q, db)), 1e-6);
}

TEST(Soundness, ChainQueryWithManyNorms) {
  Rng rng(41);
  Catalog db = RandomDb(rng, {"R", "S", "T", "U"}, 100, 14, 0.5);
  Query q = Parse("R(X1,X2), S(X2,X3), T(X3,X4), U(X4,X5)");
  CollectorOptions opt;
  opt.norms = {1.0, 2.0, 3.0, 4.0, 5.0, kInfNorm};
  auto stats = CollectStatistics(q, db, opt);
  auto bound = ComputeBound("auto", q.num_vars(), stats);
  ASSERT_TRUE(bound.ok());
  EXPECT_GE(bound.log2_bound, Log2Count(CountJoin(q, db)) - 1e-6);
}

// --- Estimator comparisons -------------------------------------------------

TEST(Comparison, DsbBelowL2BoundOnSingleJoin) {
  // DSB <= ℓ2-bound (Cauchy-Schwarz), both above the truth.
  Rng rng(51);
  for (int trial = 0; trial < 5; ++trial) {
    Catalog db = RandomDb(rng, {"R", "S"}, 120, 18, 0.6);
    Query q = Parse("R(X,Y), S(Y,Z)");
    DegreeSequence a = ComputeDegreeSequence(db.Get("R"), {1}, {0});
    DegreeSequence b = ComputeDegreeSequence(db.Get("S"), {0}, {1});
    const double dsb = SingleJoinDsbLog2(a, b);
    const double l2 = a.Log2NormP(2.0) + b.Log2NormP(2.0);
    const double truth = Log2Count(CountJoin(q, db));
    EXPECT_LE(truth, dsb + 1e-9);
    EXPECT_LE(dsb, l2 + 1e-9);
  }
}

TEST(Comparison, AppendixC3GapInstance) {
  // R = (0,1/3)-relation, S = (0,2/3)-relation: DSB = Θ(M) while the
  // ℓp-bound is Θ(M^{10/9}) — the bounds must straddle M and M^{10/9}.
  // The log-scale gap is (1/9)log2 M - 1, so M must exceed 2^9 for the gap
  // to be visible at all; 2^15 gives ~0.67 bits.
  const uint64_t m = 32768;  // 2^15: M^{1/3} = 32, M^{2/3} = 1024 exactly
  Catalog db;
  db.Add(AlphaBetaRelation("R", m, 0.0, 1.0 / 3));
  db.Add(AlphaBetaRelation("S", m, 0.0, 2.0 / 3));
  Query q = Parse("R(X,Y), S(Y,Z)");
  CollectorOptions opt;
  opt.norms = {1.0, 2.0, 3.0, 4.0, 5.0, kInfNorm};
  auto stats = CollectStatistics(q, db, opt);
  auto bound = ComputeBound("auto", q.num_vars(), stats);
  ASSERT_TRUE(bound.ok());
  DegreeSequence a = ComputeDegreeSequence(db.Get("R"), {1}, {0});
  DegreeSequence b = ComputeDegreeSequence(db.Get("S"), {0}, {1});
  const double dsb = SingleJoinDsbLog2(a, b);
  const double truth = Log2Count(CountJoin(q, db));
  EXPECT_LE(truth, dsb + 1e-9);
  EXPECT_LE(dsb, bound.log2_bound + 1e-9);
  // The ℓp bound exceeds the DSB on this instance (the 10/9 gap), though
  // rounding keeps the measured gap below the asymptotic (1/9) log M.
  EXPECT_GT(bound.log2_bound, dsb + 0.2);
}

TEST(Comparison, TraditionalVsBoundsOnJobQuery) {
  JobWorkloadOptions opt;
  opt.scale = 0.08;
  JobWorkload wl = GenerateJobWorkload(opt);
  const Query& q = wl.queries[0];  // q1: cast_info star
  const uint64_t truth = CountJoin(q, wl.catalog);
  CollectorOptions copt;
  copt.norms = {1.0, 2.0, 3.0, kInfNorm};
  auto stats = CollectStatistics(q, wl.catalog, copt);
  auto bound = ComputeBound("auto", q.num_vars(), stats);
  ASSERT_TRUE(bound.ok());
  EXPECT_GE(bound.log2_bound, Log2Count(truth) - 1e-6);
  // PK/FK joins: ours should be within a few orders of magnitude, while
  // AGM explodes.
  auto agm = AgmBound(q, wl.catalog);
  EXPECT_LT(bound.log2_bound, agm.log2_bound);
}

TEST(Soundness, LoomisWhitneyTernaryAtoms) {
  // Higher-arity atoms (App. C.6): the LW4 query with pair conditionals
  // needs the Γn engine (non-simple statistics).
  Rng rng(61);
  Catalog db;
  for (const char* name : {"A", "B", "C", "D"}) {
    Relation r(name, {"u", "v", "w"});
    for (int i = 0; i < 120; ++i) {
      r.AddRow({rng.Uniform(6), rng.Uniform(6), rng.Uniform(6)});
    }
    r.Deduplicate();
    db.Add(std::move(r));
  }
  Query q = Parse("A(X,Y,Z), B(Y,Z,W), C(Z,W,X), D(W,X,Y)");
  CollectorOptions opt;
  opt.norms = {1.0, 2.0, kInfNorm};
  opt.max_u_size = 2;  // non-simple conditionals like (YZ|X)
  auto stats = CollectStatistics(q, db, opt);
  EXPECT_FALSE(AllSimple(stats));
  auto bound = ComputeBound("gamma", q.num_vars(), stats);
  ASSERT_TRUE(bound.ok());
  EXPECT_GE(bound.log2_bound, Log2Count(CountJoin(q, db)) - 1e-6);
}

TEST(Soundness, CompressedStatisticsRemainSound) {
  // Bounds computed from dominating compressed degree sequences (the
  // SafeBound-style summaries) are still upper bounds — compression only
  // loosens them.
  Rng rng(62);
  Catalog db = RandomDb(rng, {"R", "S"}, 200, 25, 0.7);
  Query q = Parse("R(X,Y), S(Y,Z)");
  const double truth = Log2Count(CountJoin(q, db));

  CollectorOptions opt;
  opt.norms = {1.0, 2.0, 3.0, kInfNorm};
  auto exact_stats = CollectStatistics(q, db, opt);
  auto exact = ComputeBound("auto", q.num_vars(), exact_stats);

  // Recompute each statistic from the compressed sequence.
  auto compressed_stats = exact_stats;
  for (auto& s : compressed_stats) {
    if (s.sigma.u == 0) continue;
    const Atom& atom = q.atom(s.guard_atom);
    const Relation& rel = db.Get(atom.relation);
    std::vector<int> u_cols, v_cols;
    for (size_t j = 0; j < atom.vars.size(); ++j) {
      if (Contains(s.sigma.u, atom.vars[j])) {
        u_cols.push_back(static_cast<int>(j));
      } else {
        v_cols.push_back(static_cast<int>(j));
      }
    }
    CompressionOptions copt;
    copt.exact_head = 4;
    copt.tail_buckets = 4;
    s.log_b = CompressDominating(ComputeDegreeSequence(rel, u_cols, v_cols),
                                 copt)
                  .Log2NormP(s.p);
  }
  auto compressed = ComputeBound("auto", q.num_vars(), compressed_stats);
  ASSERT_TRUE(exact.ok() && compressed.ok());
  EXPECT_GE(compressed.log2_bound, exact.log2_bound - 1e-7);
  EXPECT_GE(compressed.log2_bound, truth - 1e-6);
}

TEST(Soundness, AmplificationScalesTheBoundLinearly) {
  // k-amplified log-statistics (App. D.2) scale the polymatroid bound by
  // exactly k (the LP is positively homogeneous).
  Rng rng(63);
  Catalog db = RandomDb(rng, {"R", "S", "T"}, 100, 12, 0.4);
  Query q = Parse("R(X,Y), S(Y,Z), T(Z,X)");
  CollectorOptions opt;
  opt.norms = {1.0, 2.0, kInfNorm};
  auto stats = CollectStatistics(q, db, opt);
  auto base = ComputeBound("gamma", q.num_vars(), stats);
  ASSERT_TRUE(base.ok());
  for (double k : {2.0, 3.5}) {
    auto scaled = stats;
    for (auto& s : scaled) s.log_b *= k;
    auto r = ComputeBound("gamma", q.num_vars(), scaled);
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r.log2_bound, k * base.log2_bound, 1e-5) << k;
  }
}

TEST(Comparison, WeightsRevealWhichNormsMatter) {
  // On a PK/FK join the optimal certificate uses the ℓ∞ statistic of the
  // key column (max degree 1), as reported in Appendix C.2.
  JobWorkloadOptions opt;
  opt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(opt);
  const Query& q = wl.queries[2];  // movie_keyword ⋈ title ⋈ lookups
  CollectorOptions copt;
  copt.norms = {1.0, 2.0, kInfNorm};
  auto stats = CollectStatistics(q, wl.catalog, copt);
  auto bound = ComputeBound("gamma", q.num_vars(), stats);
  ASSERT_TRUE(bound.ok());
  bool uses_inf_on_key = false;
  for (size_t i = 0; i < stats.size(); ++i) {
    if (bound.weights[i] > 1e-6 && stats[i].p >= kInfNorm / 2) {
      uses_inf_on_key = true;
    }
  }
  EXPECT_TRUE(uses_inf_on_key);
  double certified = 0.0;
  for (size_t i = 0; i < stats.size(); ++i) {
    certified += bound.weights[i] * stats[i].log_b;
  }
  EXPECT_NEAR(certified, bound.log2_bound, 1e-5);
}

}  // namespace
}  // namespace lpb
