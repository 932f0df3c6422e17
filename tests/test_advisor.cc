#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/job_gen.h"
#include "exec/generic_join.h"
#include "exec/yannakakis.h"
#include "query/parser.h"
#include "relation/degree_sequence.h"
#include "bounds/bound_engine.h"
#include "estimator/advisor.h"
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

Catalog SmallDb(uint64_t seed = 3) {
  Catalog db;
  Rng rng(seed);
  ZipfSampler zipf(15, 0.5);
  for (const char* name : {"R", "S", "T"}) {
    Relation r(name, {"a", "b"});
    for (int i = 0; i < 100; ++i) {
      r.AddRow({zipf.Sample(rng), zipf.Sample(rng)});
    }
    r.Deduplicate();
    db.Add(std::move(r));
  }
  return db;
}

TEST(Advisor, MatchesCollectorPipeline) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  for (const char* text :
       {"R(X,Y), S(Y,Z)", "R(X,Y), S(Y,Z), T(Z,X)", "R(X,Y), R(Y,Z)"}) {
    Query q = Parse(text);
    CollectorOptions copt;
    copt.norms = AdvisorOptions{}.norms;
    auto stats = CollectStatistics(q, db, copt);
    auto expected = ComputeBound("auto", q.num_vars(), stats);
    EXPECT_NEAR(advisor.EstimateLog2(q), expected.log2_bound, 1e-9) << text;
  }
}

TEST(Advisor, EstimatesAreSound) {
  Catalog db = SmallDb(7);
  CardinalityAdvisor advisor(db);
  for (const char* text :
       {"R(X,Y), S(Y,Z)", "R(X,Y), S(Y,Z), T(Z,W)", "R(X,Y), T(Y,X)"}) {
    Query q = Parse(text);
    const uint64_t truth = CountJoin(q, db);
    if (truth == 0) continue;
    EXPECT_GE(advisor.EstimateLog2(q),
              std::log2(static_cast<double>(truth)) - 1e-6)
        << text;
  }
}

TEST(Advisor, CacheIsSharedAcrossQueries) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z)"));
  const size_t after_first = advisor.CacheSize();
  EXPECT_GT(after_first, 0u);
  // The triangle reuses R's and S's sequences; only T's are new.
  advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z), T(Z,X)"));
  const size_t after_second = advisor.CacheSize();
  EXPECT_GT(after_second, after_first);
  // Re-running adds nothing.
  advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z), T(Z,X)"));
  EXPECT_EQ(advisor.CacheSize(), after_second);
}

TEST(Advisor, SelfJoinSharesCacheEntries) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  const Query q = Parse("R(X,Y), R(Y,Z)");
  advisor.EstimateLog2(q);
  // Two atoms over the same relation with the same column splits: six
  // statistic lookups name three degree sequences of R (cardinality + two
  // conditionals). A call dedups its keys before the store sees them, so
  // the first call is three misses and no hits, the second three hits.
  EXPECT_EQ(advisor.CacheSize(), 3u);
  AdvisorMetrics m = advisor.metrics();
  EXPECT_EQ(m.norm_misses, 3u);
  EXPECT_EQ(m.norm_hits, 0u);
  advisor.EstimateLog2(q);
  m = advisor.metrics();
  EXPECT_EQ(m.norm_misses, 3u);
  EXPECT_EQ(m.norm_hits, 3u);
}

TEST(Advisor, InvalidateDropsOnlyThatRelation) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z)"));
  const size_t full = advisor.CacheSize();
  advisor.Invalidate("R");
  EXPECT_LT(advisor.CacheSize(), full);
  EXPECT_GT(advisor.CacheSize(), 0u);  // S entries survive
}

TEST(Advisor, ExplainProducesCertificate) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  Query q = Parse("R(X,Y), S(Y,Z)");
  auto explanation = advisor.Explain(q);
  ASSERT_TRUE(explanation.bound.ok());
  double certified = 0.0;
  for (size_t i = 0; i < explanation.stats.size(); ++i) {
    certified +=
        explanation.bound.weights[i] * explanation.stats[i].log_b;
    EXPECT_FALSE(explanation.stats[i].label.empty());
  }
  EXPECT_NEAR(certified, explanation.bound.log2_bound, 1e-5);
}

TEST(Advisor, JobWorkloadThroughput) {
  JobWorkloadOptions opt;
  opt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(opt);
  CardinalityAdvisor advisor(wl.catalog);
  int sound = 0;
  for (const Query& q : wl.queries) {
    const double est = advisor.EstimateLog2(q);
    auto truth = CountAcyclic(q, wl.catalog);
    ASSERT_TRUE(truth.has_value());
    if (*truth == 0 ||
        est >= std::log2(static_cast<double>(*truth)) - 1e-6) {
      ++sound;
    }
  }
  EXPECT_EQ(sound, static_cast<int>(wl.queries.size()));
  // The cache holds one entry per (relation, column split), far fewer than
  // 33 x per-query statistics.
  EXPECT_LT(advisor.CacheSize(), 100u);
}

TEST(Advisor, CardinalityAssertionsSurviveNormsWithoutL1) {
  // Without p = 1 among the maintained norms, every atom still asserts
  // |R| (an ℓ1 statistic of the one-entry deg(vars|∅)).
  JobWorkloadOptions opt;
  opt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(opt);
  const Query& q3 = wl.queries[2];
  AdvisorOptions options;
  options.norms = {2.0, kInfNorm};
  CardinalityAdvisor advisor(wl.catalog, options);
  const auto explanation = advisor.Explain(q3);
  int cardinalities = 0;
  for (const ConcreteStatistic& s : explanation.stats) {
    if (s.sigma.u != 0) continue;
    ++cardinalities;
    EXPECT_EQ(s.p, 1.0);
    // JOB atoms bind distinct variables, so vars ∪ ∅ covers every column.
    const Relation& rel = wl.catalog.Get(q3.atom(s.guard_atom).relation);
    std::vector<int> cols(rel.arity());
    for (int c = 0; c < rel.arity(); ++c) cols[c] = c;
    const size_t distinct = DistinctCount(rel, cols);
    EXPECT_EQ(s.log_b, std::log2(static_cast<double>(distinct)));
  }
  EXPECT_EQ(cardinalities, q3.num_atoms());
  // 2 norms x 2 conditionals for each binary atom, plus 4 assertions.
  EXPECT_EQ(explanation.stats.size(), 12u);

  // The collector pipeline always asserts |R|; the advisor now agrees.
  CollectorOptions copt;
  copt.norms = options.norms;
  const auto expected = ComputeBound("auto", q3.num_vars(),
                                     CollectStatistics(q3, wl.catalog, copt));
  EXPECT_NEAR(explanation.bound.log2_bound, expected.log2_bound, 1e-9);
}

TEST(Advisor, RepeatedTemplatesReuseCompiledWitness) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  Query q = Parse("R(X,Y), S(Y,Z), T(Z,X)");
  const double first = advisor.EstimateLog2(q);
  AdvisorMetrics m = advisor.metrics();
  EXPECT_EQ(m.estimates, 1u);
  EXPECT_EQ(m.compiled_misses, 1u);
  EXPECT_EQ(m.cold_solves, 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(advisor.EstimateLog2(q), first, 1e-9);
  }
  m = advisor.metrics();
  EXPECT_EQ(m.estimates, 6u);
  EXPECT_EQ(m.compiled_hits, 5u);
  // Unchanged statistics keep the cached basis optimal: pure witness reuse.
  EXPECT_EQ(m.witness_hits, 5u);
  EXPECT_EQ(advisor.CompiledCacheSize(), 1u);
}

TEST(Advisor, SameStructureDifferentRelationsSharesCompiledBound) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  // Same hypergraph + statistic shapes over different relations: one
  // compiled structure, two statistics snapshots.
  advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z)"));
  advisor.EstimateLog2(Parse("S(X,Y), T(Y,Z)"));
  EXPECT_EQ(advisor.CompiledCacheSize(), 1u);
  const AdvisorMetrics m = advisor.metrics();
  EXPECT_EQ(m.compiled_misses, 1u);
  EXPECT_EQ(m.compiled_hits, 1u);
}

TEST(Advisor, ExplainReportsEvalPathAndMetrics) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  Query q = Parse("R(X,Y), S(Y,Z)");
  auto cold = advisor.Explain(q);
  EXPECT_EQ(cold.bound.eval_path, LpEvalPath::kCold);
  EXPECT_EQ(cold.metrics.compiled_misses, 1u);
  auto warm = advisor.Explain(q);
  EXPECT_EQ(warm.bound.eval_path, LpEvalPath::kWitness);
  EXPECT_EQ(warm.metrics.witness_hits, 1u);
  EXPECT_NEAR(warm.bound.log2_bound, cold.bound.log2_bound, 1e-9);
}

TEST(Advisor, InvalidateRefreshesValuesButKeepsCompiledBounds) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  Query q = Parse("R(X,Y), S(Y,Z)");
  const double before = advisor.EstimateLog2(q);
  advisor.Invalidate("R");
  EXPECT_EQ(advisor.CompiledCacheSize(), 1u);  // structure cache survives
  EXPECT_NEAR(advisor.EstimateLog2(q), before, 1e-9);  // same data: same bound
}

TEST(Advisor, ConcurrentEstimatesAreConsistent) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  const std::vector<std::string> texts = {
      "R(X,Y), S(Y,Z)", "R(X,Y), S(Y,Z), T(Z,X)", "R(X,Y), R(Y,Z)",
      "S(X,Y), T(Y,Z)"};
  std::vector<double> expected;
  for (const auto& text : texts) expected.push_back(
      advisor.EstimateLog2(Parse(text)));

  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const size_t qi = (t + i) % texts.size();
        const double est = advisor.EstimateLog2(Parse(texts[qi]));
        if (std::abs(est - expected[qi]) > 1e-9) ++mismatches[t];
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  const AdvisorMetrics m = advisor.metrics();
  EXPECT_EQ(m.estimates,
            static_cast<uint64_t>(kThreads * kIters + texts.size()));
  EXPECT_EQ(m.compiled_hits + m.compiled_misses, m.estimates);
  EXPECT_GT(m.witness_hits, 0u);
}

TEST(Advisor, EstimateLinearSpace) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  Query q = Parse("R(X,Y), S(Y,Z)");
  EXPECT_NEAR(std::log2(advisor.Estimate(q)), advisor.EstimateLog2(q), 1e-9);
}

TEST(Advisor, IterationLimitReadsAsCannotBound) {
  // An LP the solver gives up on certifies nothing. Every estimate path
  // must answer +inf ("cannot bound"), never the 0.0 (one row) of an
  // unsolved bound: the triangle below has 2^7.42 answers.
  Catalog db = SmallDb(3);
  const Query q = Parse("R(X,Y), S(Y,Z), T(Z,X)");
  ASSERT_GT(CountJoin(q, db), 1u);
  AdvisorOptions options;
  options.engine.simplex.max_iterations = 1;
  CardinalityAdvisor advisor(db, options);

  const CardinalityAdvisor::Explanation explanation = advisor.Explain(q);
  EXPECT_EQ(explanation.bound.status, LpStatus::kIterationLimit);
  EXPECT_EQ(explanation.bound.log2_bound, kInfNorm);
  const std::vector<double> values = ValuesOf(explanation.stats);

  auto compiled = FindBoundEngine("auto")->Compile(
      StructureOf(q.num_vars(), explanation.stats), options.engine);
  const BoundResult direct = compiled->Evaluate(values);
  EXPECT_EQ(direct.status, LpStatus::kIterationLimit);
  EXPECT_EQ(direct.log2_bound, kInfNorm);
  EXPECT_EQ(ComputeBound("auto", q.num_vars(), explanation.stats,
                         options.engine)
                .log2_bound,
            kInfNorm);

  EXPECT_EQ(advisor.EstimateLog2(q), kInfNorm);
  const std::vector<std::vector<double>> block = {values, values};
  for (double v : advisor.EstimateLog2Batch(q, block)) {
    EXPECT_EQ(v, kInfNorm);
  }
  for (double v : advisor.EstimateLog2Batch(std::vector<Query>{q, q})) {
    EXPECT_EQ(v, kInfNorm);
  }
}

// Columns of `atom` bound to the variables of `s`, in variable order.
std::vector<int> AtomColumns(const Atom& atom, VarSet s) {
  std::vector<int> cols;
  for (int v : VarRange(s)) {
    for (size_t j = 0; j < atom.vars.size(); ++j) {
      if (atom.vars[j] == v) {
        cols.push_back(static_cast<int>(j));
        break;
      }
    }
  }
  return cols;
}

TEST(AdvisorBatchAssembly, GroupedMissesAreBitwiseTheDegreeSequenceNorms) {
  // Misses of one (relation, column set) share one sort. One batch mixes a
  // self-join reading R through both column orders (four keys of R's one
  // column set: two cardinality orders and two conditionals), a one-column
  // relation A, a zero-row relation Z, and S; R and S are then swapped for
  // new data and invalidated together.
  Catalog db = SmallDb(11);
  Relation a("A", {"x"});
  for (Value v : {3, 1, 4, 1, 5, 9, 2, 6}) a.AddRow({v});
  db.Add(std::move(a));
  db.Add(Relation("Z", {"x", "y"}));
  const std::vector<Query> batch = {Parse("R(X,Y), R(Y,X)"),
                                    Parse("S(X,Y), A(Y)"),
                                    Parse("Z(X,Y), S(Y,W), A(W)")};
  const std::vector<double> norms = AdvisorOptions{}.norms;

  // Every statistic's log_b for `query` from ComputeDegreeSequence, in
  // assembly order; also records each relation's distinct (U, V) keys.
  using Key = std::pair<std::vector<int>, std::vector<int>>;
  std::map<std::string, std::set<Key>> keys;
  const auto expected_log_b = [&](const Query& query) {
    std::vector<double> out;
    for (const Atom& atom : query.atoms()) {
      const Relation& rel = db.Get(atom.relation);
      const VarSet vars = atom.var_set();
      const std::vector<int> all = AtomColumns(atom, vars);
      keys[atom.relation].insert({{}, all});
      out.push_back(ComputeDegreeSequence(rel, {}, all).Log2NormP(1.0));
      for (int v : VarRange(vars)) {
        const VarSet rest = vars & ~VarBit(v);
        if (rest == 0) continue;
        const std::vector<int> u = AtomColumns(atom, VarBit(v));
        const std::vector<int> w = AtomColumns(atom, rest);
        keys[atom.relation].insert({u, w});
        const DegreeSequence deg = ComputeDegreeSequence(rel, u, w);
        for (double p : norms) out.push_back(deg.Log2NormP(p));
      }
    }
    return out;
  };
  CardinalityAdvisor advisor(db);
  const auto check = [&](const char* phase) {
    const auto got = advisor.AssembleStatisticsBatch(batch);
    ASSERT_EQ(got.size(), batch.size());
    for (size_t q = 0; q < batch.size(); ++q) {
      const std::vector<double> want = expected_log_b(batch[q]);
      ASSERT_EQ(got[q].size(), want.size()) << phase << " query " << q;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[q][i].log_b, want[i])  // bitwise, -inf for Z
            << phase << " query " << q << " stat " << i;
      }
    }
  };
  check("cold");
  ASSERT_EQ(keys["R"].size(), 4u);
  ASSERT_EQ(keys["S"].size(), 3u);
  ASSERT_EQ(keys["A"].size(), 1u);
  ASSERT_EQ(keys["Z"].size(), 3u);

  // New data for R and S, invalidated together: the next batch misses
  // exactly their distinct keys and hits every other one.
  const Catalog fresh = SmallDb(12);
  *db.GetMutable("R") = fresh.Get("R");
  *db.GetMutable("S") = fresh.Get("S");
  advisor.Invalidate("R");
  advisor.Invalidate("S");
  const AdvisorMetrics before = advisor.metrics();
  check("invalidated");
  const AdvisorMetrics after = advisor.metrics();
  EXPECT_EQ(after.norm_misses - before.norm_misses,
            keys["R"].size() + keys["S"].size());
  EXPECT_EQ(after.norm_hits - before.norm_hits,
            keys["A"].size() + keys["Z"].size());

  // A repeat call hits on every key.
  check("repeat");
  const AdvisorMetrics repeat = advisor.metrics();
  EXPECT_EQ(repeat.norm_misses, after.norm_misses);
  EXPECT_EQ(repeat.norm_hits - after.norm_hits, 11u);
}

}  // namespace
}  // namespace lpb
