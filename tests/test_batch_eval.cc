// Batch evaluation must be indistinguishable from the scalar sequence.
//
// EvaluateBatch / ResolveWithRhsBatch / EstimateLog2Batch all promise the
// same contract: results identical to calling the scalar entry point once
// per column, with the cached basis evolving across the batch exactly as
// it would across scalar calls. These tests hold every layer to it
// *bitwise* — two identically compiled bounds, one driven scalar and one
// batched, must produce equal doubles, equal eval paths, and equal
// counters on every engine and both kernel dispatch modes. The one
// deliberate exception is the Γn cutting-plane mode, whose batch shares a
// cut pool and so promises tolerance parity on the converged bounds
// instead (see CuttingPlaneModeSharesCutPoolWithScalarParity).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "bounds/bound_engine.h"
#include "bounds/normal_engine.h"
#include "datagen/job_gen.h"
#include "estimator/advisor.h"
#include "lp/lp_problem.h"
#include "lp/tableau.h"
#include "query/parser.h"
#include "relation/degree_sequence.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lpb {
namespace {

ConcreteStatistic Stat(VarSet u, VarSet v, double p, double log_b) {
  ConcreteStatistic s;
  s.sigma = {u, v};
  s.p = p;
  s.log_b = log_b;
  return s;
}

// Simple statistics (usable by every engine including "normal").
std::vector<ConcreteStatistic> SimpleStats() {
  return {Stat(0, 0b011, 1.0, 10.0),        Stat(0, 0b110, 1.0, 9.0),
          Stat(0, 0b101, 1.0, 11.0),        Stat(0b001, 0b010, 2.0, 6.0),
          Stat(0b010, 0b100, 2.0, 5.5),     Stat(0b100, 0b001, kInfNorm, 3.0)};
}

// Mixed statistics with a non-simple shape (gamma/auto/agm/panda only).
std::vector<ConcreteStatistic> NonSimpleStats() {
  auto stats = SimpleStats();
  stats.push_back(Stat(0b011, 0b100, 2.0, 4.0));
  return stats;
}

// A batch exercising every evaluation path: the base values (witness),
// gentle scalings (witness or warm), drastic redraws (warm or cold), and
// a return to base (witness again).
std::vector<std::vector<double>> JitteredBatch(
    const std::vector<ConcreteStatistic>& stats, uint64_t seed) {
  Rng rng(seed);
  const std::vector<double> base = ValuesOf(stats);
  std::vector<std::vector<double>> batch;
  batch.push_back(base);
  for (int round = 0; round < 6; ++round) {
    std::vector<double> values = base;
    for (double& v : values) {
      v *= round % 2 == 0 ? 0.9 + 0.2 * rng.NextDouble()
                          : 0.25 + 1.5 * rng.NextDouble();
    }
    batch.push_back(std::move(values));
  }
  batch.push_back(base);
  return batch;
}

void ExpectBitwiseEqual(const BoundResult& a, const BoundResult& b,
                        const std::string& context) {
  EXPECT_EQ(a.status, b.status) << context;
  EXPECT_EQ(a.log2_bound, b.log2_bound) << context;
  EXPECT_EQ(a.eval_path, b.eval_path) << context;
  EXPECT_EQ(a.lp_iterations, b.lp_iterations) << context;
  EXPECT_EQ(a.cut_rounds, b.cut_rounds) << context;
  // The per-call solver statistics are part of the parity contract too:
  // a batch column must do exactly the pivots, updates, and
  // refactorizations its scalar twin does.
  EXPECT_EQ(a.lp_stats.phase1_pivots, b.lp_stats.phase1_pivots) << context;
  EXPECT_EQ(a.lp_stats.phase2_pivots, b.lp_stats.phase2_pivots) << context;
  EXPECT_EQ(a.lp_stats.dual_pivots, b.lp_stats.dual_pivots) << context;
  EXPECT_EQ(a.lp_stats.refactorizations, b.lp_stats.refactorizations)
      << context;
  EXPECT_EQ(a.lp_stats.ft_updates, b.lp_stats.ft_updates) << context;
  EXPECT_EQ(a.lp_stats.rejected_updates, b.lp_stats.rejected_updates)
      << context;
  // Kernel-level parity: a batch column must invoke exactly the kernel
  // calls its scalar twin does (cycles are timing-dependent and excluded).
  for (int k = 0; k < kNumLpKernels; ++k) {
    EXPECT_EQ(a.lp_stats.kernel_calls[k], b.lp_stats.kernel_calls[k])
        << context << " kernel " << LpKernelName(static_cast<LpKernelId>(k));
  }
  ASSERT_EQ(a.weights.size(), b.weights.size()) << context;
  for (size_t i = 0; i < a.weights.size(); ++i) {
    EXPECT_EQ(a.weights[i], b.weights[i]) << context << " weight " << i;
  }
  ASSERT_EQ(a.h_opt.size(), b.h_opt.size()) << context;
  for (VarSet s = 0; s < a.h_opt.size(); ++s) {
    EXPECT_EQ(a.h_opt[s], b.h_opt[s]) << context << " h_opt " << s;
  }
}

// Compiles `stats`' structure twice with identical options and drives one
// copy scalar, one batched; every per-column result and the final counters
// must agree bitwise. `max_basis_updates` = 1 forces a refactorization
// after every pivot, the worst case for mid-batch factorization churn.
void CheckEngineBatchParity(const std::string& engine_name,
                            const std::vector<ConcreteStatistic>& stats,
                            int n, bool want_h_opt,
                            int max_basis_updates = 0,
                            SimdMode simd = SimdMode::kAuto) {
  const BoundEngine* engine = FindBoundEngine(engine_name);
  ASSERT_NE(engine, nullptr);
  EngineOptions options;
  options.simplex.max_basis_updates = max_basis_updates;
  options.simplex.simd = simd;
  const BoundStructure structure = StructureOf(n, stats);
  ASSERT_TRUE(engine->Supports(structure));
  auto scalar_bound = engine->Compile(structure, options);
  auto batch_bound = engine->Compile(structure, options);

  const auto batch = JitteredBatch(stats, 7 + n);
  std::vector<BoundResult> scalar_results;
  scalar_results.reserve(batch.size());
  for (const std::vector<double>& values : batch) {
    scalar_results.push_back(scalar_bound->Evaluate(values, want_h_opt));
  }
  const std::vector<BoundResult> batch_results =
      batch_bound->EvaluateBatch(batch, want_h_opt);

  ASSERT_EQ(batch_results.size(), scalar_results.size());
  const std::string context = engine_name + (want_h_opt ? "/h_opt" : "");
  for (size_t c = 0; c < batch.size(); ++c) {
    ExpectBitwiseEqual(batch_results[c], scalar_results[c],
                       context + " column " + std::to_string(c));
  }
  EXPECT_EQ(batch_bound->counters().evaluations,
            scalar_bound->counters().evaluations) << context;
  EXPECT_EQ(batch_bound->counters().witness_hits,
            scalar_bound->counters().witness_hits) << context;
  EXPECT_EQ(batch_bound->counters().warm_resolves,
            scalar_bound->counters().warm_resolves) << context;
  EXPECT_EQ(batch_bound->counters().cold_solves,
            scalar_bound->counters().cold_solves) << context;
}

TEST(EvaluateBatch, MatchesScalarOnAllEngines) {
  for (const char* name : {"gamma", "normal", "auto", "agm", "panda"}) {
    CheckEngineBatchParity(name, SimpleStats(), 3, /*want_h_opt=*/false);
  }
  for (const char* name : {"gamma", "auto", "agm", "panda"}) {
    CheckEngineBatchParity(name, NonSimpleStats(), 3, /*want_h_opt=*/false);
  }
  // h_opt materialization must batch identically too.
  CheckEngineBatchParity("normal", SimpleStats(), 3, /*want_h_opt=*/true);
  CheckEngineBatchParity("gamma", NonSimpleStats(), 3, /*want_h_opt=*/true);
}

TEST(EvaluateBatch, MidBatchRefactorizeKeepsParity) {
  // Regression for the Forrest–Tomlin fallback: max_basis_updates = 1
  // trips NeedsRefactorize after every pivot, so any warm or cold column
  // inside a batch refactorizes mid-block — which must not desynchronize
  // the batch from the scalar sequence (the B⁻¹ memo keys on
  // factorization identity and must invalidate on every update).
  CheckEngineBatchParity("gamma", NonSimpleStats(), 3, /*want_h_opt=*/false,
                         /*max_basis_updates=*/1);
  CheckEngineBatchParity("normal", SimpleStats(), 3, /*want_h_opt=*/false,
                         /*max_basis_updates=*/1);
}

TEST(EvaluateBatch, MatchesScalarUnderForcedSimdModes) {
  // The batch≡scalar contract must hold with the SIMD dispatch pinned to
  // either table — the kernels are shared state between the two paths,
  // and the kernel_calls comparison inside ExpectBitwiseEqual also pins
  // the per-column kernel schedule under both modes.
  for (SimdMode simd : {SimdMode::kAuto, SimdMode::kScalar}) {
    for (const char* name : {"gamma", "normal", "auto"}) {
      CheckEngineBatchParity(name, SimpleStats(), 3, /*want_h_opt=*/false,
                             /*max_basis_updates=*/0, simd);
    }
    CheckEngineBatchParity("gamma", NonSimpleStats(), 3, /*want_h_opt=*/false,
                           /*max_basis_updates=*/0, simd);
  }
}

TEST(EvaluateBatch, SimdModesProduceBitwiseIdenticalEstimates) {
  // The tentpole acceptance criterion: simd=auto and simd=scalar are not
  // merely close — every estimate bit is identical, on every engine,
  // across witness/warm/cold columns. (On machines without AVX2+FMA both
  // modes dispatch scalar and this is trivial.)
  for (const char* name : {"gamma", "normal", "auto", "agm", "panda"}) {
    const BoundEngine* engine = FindBoundEngine(name);
    ASSERT_NE(engine, nullptr);
    const BoundStructure structure = StructureOf(3, SimpleStats());
    ASSERT_TRUE(engine->Supports(structure));
    EngineOptions options;
    options.simplex.simd = SimdMode::kAuto;
    auto auto_bound = engine->Compile(structure, options);
    options.simplex.simd = SimdMode::kScalar;
    auto scalar_bound = engine->Compile(structure, options);

    const auto batch = JitteredBatch(SimpleStats(), 99);
    const std::vector<BoundResult> auto_results =
        auto_bound->EvaluateBatch(batch, /*want_h_opt=*/true);
    const std::vector<BoundResult> scalar_results =
        scalar_bound->EvaluateBatch(batch, /*want_h_opt=*/true);
    ASSERT_EQ(auto_results.size(), scalar_results.size());
    const std::string context = std::string(name) + " auto-vs-scalar";
    for (size_t c = 0; c < auto_results.size(); ++c) {
      const BoundResult& a = auto_results[c];
      const BoundResult& s = scalar_results[c];
      const std::string ctx = context + " column " + std::to_string(c);
      EXPECT_EQ(a.status, s.status) << ctx;
      EXPECT_EQ(a.log2_bound, s.log2_bound) << ctx;
      EXPECT_EQ(a.eval_path, s.eval_path) << ctx;
      ASSERT_EQ(a.weights.size(), s.weights.size()) << ctx;
      for (size_t i = 0; i < a.weights.size(); ++i) {
        EXPECT_EQ(a.weights[i], s.weights[i]) << ctx << " weight " << i;
      }
      ASSERT_EQ(a.h_opt.size(), s.h_opt.size()) << ctx;
      for (VarSet v = 0; v < a.h_opt.size(); ++v) {
        EXPECT_EQ(a.h_opt[v], s.h_opt[v]) << ctx << " h_opt " << v;
      }
    }
  }
}

TEST(EvaluateBatch, CuttingPlaneModeSharesCutPoolWithScalarParity) {
  // Force Γn into cutting-plane mode, where a batch shares one cut pool:
  // converged columns ride the multi-RHS block resolve and only columns
  // that still separate new cuts pay scalar top-up rounds. Both drivers
  // converge the same finite cut family per column, so bounds agree to
  // floating-point tolerance — not bitwise: the pooled path may reach a
  // different (equal-value) optimal vertex and a different pivot count.
  EngineOptions options;
  options.full_lattice_max_n = 3;
  const int n = 5;
  std::vector<ConcreteStatistic> stats;
  for (int i = 0; i + 1 < n; ++i) {
    const VarSet u = VarBit(i), v = VarBit(i + 1);
    stats.push_back(Stat(0, u | v, 1.0, 10.0));
    stats.push_back(Stat(u, v, 2.0, 6.0));
    stats.push_back(Stat(v, u, 2.0, 6.0));
  }
  const BoundStructure structure = StructureOf(n, stats);
  auto scalar_bound = FindBoundEngine("gamma")->Compile(structure, options);
  auto batch_bound = FindBoundEngine("gamma")->Compile(structure, options);
  const auto batch = JitteredBatch(stats, 99);
  std::vector<BoundResult> scalar_results;
  for (const std::vector<double>& values : batch) {
    scalar_results.push_back(scalar_bound->Evaluate(values, false));
  }
  const auto batch_results = batch_bound->EvaluateBatch(batch, false);
  ASSERT_EQ(batch_results.size(), scalar_results.size());
  for (size_t c = 0; c < batch.size(); ++c) {
    const std::string context = "cutting-plane column " + std::to_string(c);
    EXPECT_EQ(batch_results[c].status, scalar_results[c].status) << context;
    if (batch_results[c].ok() && scalar_results[c].ok()) {
      EXPECT_NEAR(batch_results[c].log2_bound, scalar_results[c].log2_bound,
                  1e-6)
          << context;
    }
  }
  EXPECT_EQ(batch_bound->counters().evaluations,
            scalar_bound->counters().evaluations);
}

TEST(EvaluateBatch, UnboundedStructureShortCircuitsMidBatch) {
  // An ℓ∞ conditional alone never bounds h(X): the first column solves to
  // unbounded, and every later nonnegative column must take the
  // structural shortcut — in the batch exactly as in the scalar sequence.
  // The negative column after the first unbounded one is the hard case:
  // it must NOT take the shortcut, and its result must match what the
  // scalar sequence computes from the basis-free tableau.
  std::vector<ConcreteStatistic> stats = {Stat(0b01, 0b10, kInfNorm, 5.0)};
  ASSERT_EQ(SolveLp(BuildNormalBoundLp(2, stats)).status, LpStatus::kUnbounded);
  for (const char* name : {"normal", "gamma", "auto"}) {
    const BoundStructure structure = StructureOf(2, stats);
    auto scalar_bound = FindBoundEngine(name)->Compile(structure);
    auto batch_bound = FindBoundEngine(name)->Compile(structure);
    const std::vector<std::vector<double>> batch = {
        {5.0}, {9.0}, {-1.0}, {2.5}, {-0.5}, {7.0}};
    std::vector<BoundResult> scalar_results;
    for (const std::vector<double>& values : batch) {
      scalar_results.push_back(scalar_bound->Evaluate(values, false));
    }
    const auto batch_results = batch_bound->EvaluateBatch(batch, false);
    ASSERT_EQ(batch_results.size(), batch.size());
    for (size_t c = 0; c < batch.size(); ++c) {
      ExpectBitwiseEqual(batch_results[c], scalar_results[c],
                         std::string(name) + " column " + std::to_string(c));
      if (batch[c][0] >= 0.0) {
        EXPECT_TRUE(batch_results[c].unbounded());
      }
    }
    // Columns after the first verdict are witness shortcuts.
    EXPECT_EQ(batch_bound->counters().witness_hits,
              scalar_bound->counters().witness_hits);
  }
}

// What a malformed value column must read as: NaN and +inf cannot be
// priced (the default failed result, +inf), -inf is the log2 of an empty
// degree sequence and reads as the infeasible-statistics bound 0.0 (the
// output is empty), and a mis-sized column cannot be priced either.
void ExpectRejected(const BoundResult& result, double bad_value,
                    const std::string& context) {
  EXPECT_FALSE(std::isnan(result.log2_bound)) << context;
  if (bad_value == -kInfNorm) {
    EXPECT_EQ(result.status, LpStatus::kInfeasible) << context;
    EXPECT_EQ(result.log2_bound, 0.0) << context;
  } else {
    EXPECT_FALSE(result.ok()) << context;
    EXPECT_EQ(result.log2_bound, kInfNorm) << context;
  }
}

TEST(EvaluateBatch, NonFiniteValuesNeverPoisonTheCachedBasis) {
  // A NaN or infinite statistic value must never reach the cached basis:
  // a witness re-pricing or warm re-solve would write it into the tableau,
  // and that column and every later evaluation of the real values would
  // read NaN. Each bad column is rejected before any engine sees it, so
  // the results after it are bitwise those before it, in the scalar
  // sequence and inside a batch.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& stats : {SimpleStats(), NonSimpleStats()}) {
    const BoundStructure structure = StructureOf(3, stats);
    const std::vector<double> real = ValuesOf(stats);
    for (std::string_view name : BoundEngineNames()) {
      const BoundEngine* engine = FindBoundEngine(name);
      if (!engine->Supports(structure)) continue;
      for (double bad_value : {nan, kInfNorm, -kInfNorm}) {
        for (size_t slot : {size_t{0}, stats.size() - 1}) {
          const std::string context =
              std::string(name) + " value " + std::to_string(bad_value) +
              " slot " + std::to_string(slot) + " of " +
              std::to_string(stats.size());
          std::vector<double> bad = real;
          bad[slot] = bad_value;
          const std::vector<double> short_column(real.begin(),
                                                 real.end() - 1);

          // Scalar: after two warm-up evaluations (a solve, then a
          // witness read that caches its duals) the real values are served
          // by the cached witness, before and after the bad column.
          auto scalar = engine->Compile(structure);
          scalar->Evaluate(real, false);
          scalar->Evaluate(real, false);
          const BoundResult before = scalar->Evaluate(real, false);
          ASSERT_TRUE(before.ok()) << context;
          ExpectRejected(scalar->Evaluate(bad, false), bad_value, context);
          ExpectRejected(scalar->Evaluate(short_column, false), nan,
                         context + " short column");
          ExpectBitwiseEqual(scalar->Evaluate(real, false), before,
                             context + " scalar after");
          // A rejected column runs no LP, so it is not an evaluation.
          EXPECT_EQ(scalar->counters().evaluations, 4u) << context;

          // Batch: the bad and mis-sized columns sit between real ones.
          auto batched = engine->Compile(structure);
          batched->Evaluate(real, false);
          batched->Evaluate(real, false);
          const std::vector<std::vector<double>> batch = {
              real, bad, real, short_column, real};
          const std::vector<BoundResult> results =
              batched->EvaluateBatch(batch, false);
          ASSERT_EQ(results.size(), batch.size()) << context;
          ExpectBitwiseEqual(results[0], before, context + " batch 0");
          ExpectRejected(results[1], bad_value, context + " batch 1");
          ExpectBitwiseEqual(results[2], before, context + " batch 2");
          ExpectRejected(results[3], nan, context + " batch 3");
          ExpectBitwiseEqual(results[4], before, context + " batch 4");
          ExpectBitwiseEqual(batched->Evaluate(real, false), before,
                             context + " scalar after batch");

          // A one-shot bound on the bad values agrees with the compiled
          // path: the check sits in Evaluate, which ComputeBound runs.
          std::vector<ConcreteStatistic> bad_stats = stats;
          bad_stats[slot].log_b = bad_value;
          ExpectRejected(ComputeBound(name, 3, bad_stats), bad_value,
                         context + " one-shot");
        }
      }
    }
  }
}

TEST(ResolveWithRhsBatch, MatchesScalarCascade) {
  Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    // Random small LP with a feasible region in the positive orthant.
    const int n = 2 + static_cast<int>(rng.Uniform(4));
    const int rows = 2 + static_cast<int>(rng.Uniform(5));
    LpProblem lp(n);
    for (int j = 0; j < n; ++j) {
      lp.SetObjective(j, 0.5 + rng.NextDouble());
    }
    std::vector<double> base_rhs;
    for (int i = 0; i < rows; ++i) {
      std::vector<LpTerm> terms;
      for (int j = 0; j < n; ++j) {
        if (rng.NextDouble() < 0.7) {
          terms.push_back({j, 0.1 + rng.NextDouble()});
        }
      }
      if (terms.empty()) terms.push_back({0, 1.0});
      const double b = 1.0 + 10.0 * rng.NextDouble();
      lp.AddConstraint(terms, LpSense::kLe, b);
      base_rhs.push_back(b);
    }
    // Box row covering every variable, so no random draw is unbounded.
    {
      std::vector<LpTerm> box;
      for (int j = 0; j < n; ++j) box.push_back({j, 1.0});
      const double b = 20.0 + 10.0 * rng.NextDouble();
      lp.AddConstraint(box, LpSense::kLe, b);
      base_rhs.push_back(b);
    }
    // RHS batch: scalings that keep or break the cached basis.
    std::vector<std::vector<double>> batch;
    for (int c = 0; c < 6; ++c) {
      std::vector<double> rhs = base_rhs;
      for (double& b : rhs) b *= 0.3 + 1.6 * rng.NextDouble();
      batch.push_back(std::move(rhs));
    }
    SimplexTableau scalar_tab(lp);
    SimplexTableau batch_tab(lp);
    ASSERT_EQ(scalar_tab.Solve().status, LpStatus::kOptimal);
    ASSERT_EQ(batch_tab.Solve().status, LpStatus::kOptimal);
    const auto batch_results = batch_tab.ResolveWithRhsBatch(batch);
    ASSERT_EQ(batch_results.size(), batch.size());
    for (size_t c = 0; c < batch.size(); ++c) {
      const LpResult scalar = scalar_tab.ResolveWithRhs(batch[c]);
      const std::string context =
          "trial " + std::to_string(trial) + " column " + std::to_string(c);
      EXPECT_EQ(batch_results[c].status, scalar.status) << context;
      EXPECT_EQ(batch_results[c].objective, scalar.objective) << context;
      EXPECT_EQ(batch_results[c].path, scalar.path) << context;
      EXPECT_EQ(batch_results[c].iterations, scalar.iterations) << context;
      ASSERT_EQ(batch_results[c].x.size(), scalar.x.size()) << context;
      for (size_t j = 0; j < scalar.x.size(); ++j) {
        EXPECT_EQ(batch_results[c].x[j], scalar.x[j]) << context;
      }
      ASSERT_EQ(batch_results[c].duals.size(), scalar.duals.size())
          << context;
      for (size_t i = 0; i < scalar.duals.size(); ++i) {
        EXPECT_EQ(batch_results[c].duals[i], scalar.duals[i]) << context;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Advisor layer.

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

TEST(AdvisorBatch, BatchOfNMatchesNCallsOfOne) {
  // A batch groups its queries by structure and evaluates each group as one
  // block, so a structure's compiled bound sees its columns in the same
  // order as under one call per query: the bounds agree bitwise.
  Catalog db = SmallDb();
  std::vector<Query> queries;
  for (const char* text :
       {"R(X,Y), S(Y,Z)", "R(X,Y), S(Y,Z), T(Z,X)", "R(X,Y), R(Y,Z)",
        "S(X,Y), T(Y,Z)",  // same structure as the first: grouped
        "R(X,Y), S(Y,Z)"}) {
    queries.push_back(Parse(text));
  }
  CardinalityAdvisor one_advisor(db);
  CardinalityAdvisor batch_advisor(db);
  std::vector<double> expected;
  for (const Query& q : queries) {
    expected.push_back(one_advisor.EstimateLog2(q));
  }
  const std::vector<double> got = batch_advisor.EstimateLog2Batch(queries);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << queries[i].ToString();
  }
  const AdvisorMetrics m = batch_advisor.metrics();
  EXPECT_EQ(m.estimates, queries.size());
  // Queries sharing a structure were grouped: fewer lookups than
  // estimates.
  EXPECT_LT(m.compiled_hits + m.compiled_misses, m.estimates);
  const std::vector<double> linear = batch_advisor.EstimateBatch(queries);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(linear[i], std::exp2(expected[i]));
  }
}

TEST(AdvisorBatch, WhatIfValueBatchMatchesCompiledScalar) {
  Catalog db = SmallDb(11);
  const Query q = Parse("R(X,Y), S(Y,Z), T(Z,X)");
  CardinalityAdvisor advisor(db);
  const auto stats = advisor.Explain(q).stats;
  const auto batch = JitteredBatch(stats, 42);

  // Scalar reference: an identically compiled bound driven one vector at
  // a time. The advisor already evaluated the real values once (Explain),
  // so replay that prefix on the reference before comparing.
  auto reference = FindBoundEngine("auto")->Compile(
      StructureOf(q.num_vars(), stats));
  reference->Evaluate(ValuesOf(stats), /*want_h_opt=*/true);
  std::vector<double> expected;
  for (const std::vector<double>& values : batch) {
    expected.push_back(reference->Evaluate(values, false).log2_bound);
  }

  const std::vector<double> got = advisor.EstimateLog2Batch(q, batch);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t c = 0; c < expected.size(); ++c) {
    EXPECT_EQ(got[c], expected[c]) << "column " << c;
  }
}

TEST(AdvisorBatch, NonFiniteWhatIfValuesNeverPoisonLaterEstimates) {
  // The advisor's what-if batch hands caller-built value vectors straight
  // to the shared compiled bound. A NaN or infinite value in one vector
  // must not change what the advisor answers for the real statistics,
  // in that batch or in any later call.
  Catalog db = SmallDb(3);
  const Query q = Parse("R(X,Y), S(Y,Z)");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double bad_value : {nan, kInfNorm, -kInfNorm}) {
    CardinalityAdvisor advisor(db);
    const double estimate = advisor.EstimateLog2(q);
    ASSERT_TRUE(std::isfinite(estimate));
    const std::vector<double> real = ValuesOf(advisor.Explain(q).stats);
    for (size_t slot = 0; slot < real.size(); ++slot) {
      const std::string context = "value " + std::to_string(bad_value) +
                                  " slot " + std::to_string(slot);
      std::vector<double> bad = real;
      bad[slot] = bad_value;
      const std::vector<std::vector<double>> block = {real, bad, real};
      const std::vector<double> got = advisor.EstimateLog2Batch(q, block);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_EQ(got[0], estimate) << context;
      EXPECT_EQ(got[1], bad_value == -kInfNorm ? 0.0 : kInfNorm) << context;
      EXPECT_EQ(got[2], estimate) << context;
      EXPECT_EQ(advisor.EstimateLog2(q), estimate) << context;
      EXPECT_EQ(advisor.EstimateLog2Batch(std::vector<Query>{q})[0], estimate)
          << context;
    }
  }
}

TEST(AdvisorBatch, RejectedWhatIfColumnsCountNowhere) {
  // A what-if column CompiledBound cannot price — a NaN or +inf value, or
  // the wrong size — reaches no engine: it reads "cannot bound" and moves
  // none of the evaluation counters, and later estimates are bitwise those
  // made before it.
  Catalog db = SmallDb(3);
  const Query q = Parse("R(X,Y), S(Y,Z)");
  CardinalityAdvisor advisor(db);
  const double estimate = advisor.EstimateLog2(q);
  ASSERT_TRUE(std::isfinite(estimate));
  const std::vector<double> real = ValuesOf(advisor.Explain(q).stats);
  std::vector<double> with_nan = real;
  with_nan[0] = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> with_inf = real;
  with_inf.back() = kInfNorm;
  std::vector<double> longer = real;
  longer.push_back(1.0);
  const std::vector<double> shorter(real.begin(), real.end() - 1);
  const std::vector<std::pair<const char*, std::vector<double>>> rejected = {
      {"nan", with_nan},
      {"+inf", with_inf},
      {"longer", longer},
      {"shorter", shorter},
      {"empty", {}}};
  for (const auto& [name, column] : rejected) {
    const AdvisorMetrics before = advisor.metrics();
    const std::vector<double> got =
        advisor.EstimateLog2Batch(q, std::vector<std::vector<double>>{column});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], kInfNorm) << name;
    const AdvisorMetrics after = advisor.metrics();
    EXPECT_EQ(after.estimates, before.estimates) << name;
    EXPECT_EQ(after.witness_hits, before.witness_hits) << name;
    EXPECT_EQ(after.warm_resolves, before.warm_resolves) << name;
    EXPECT_EQ(after.cold_solves, before.cold_solves) << name;
    EXPECT_EQ(advisor.EstimateLog2(q), estimate) << name;

    // Beside well-formed columns, only those count.
    const std::vector<std::vector<double>> mixed = {real, column, real};
    const AdvisorMetrics mixed_before = advisor.metrics();
    const std::vector<double> mixed_got = advisor.EstimateLog2Batch(q, mixed);
    EXPECT_EQ(mixed_got, (std::vector<double>{estimate, kInfNorm, estimate}))
        << name;
    EXPECT_EQ(advisor.metrics().estimates - mixed_before.estimates, 2u)
        << name;
  }
}

TEST(AdvisorBatch, EvalPathCountsSumToEngineEstimates) {
  // Every estimate a bound engine serves is exactly one of witness, warm or
  // cold; the only estimates outside the three are 0-variable queries
  // (answered log2 1 = 0 without an engine). Pinned over every entry point,
  // with fresh and repeated structures, empty queries and rejected what-if
  // columns in the mix.
  Catalog db = SmallDb(5);
  const Query empty("empty");
  const Query q1 = Parse("R(X,Y), S(Y,Z)");
  const Query q2 = Parse("R(X,Y), S(Y,Z), T(Z,X)");
  const Query q3 = Parse("S(X,Y), T(Y,Z)");
  CardinalityAdvisor advisor(db);
  uint64_t empty_estimates = 0;

  advisor.EstimateLog2(q1);
  advisor.EstimateLog2(empty);
  ++empty_estimates;
  advisor.EstimateLog2Batch(std::vector<Query>{q2, empty, q3, q1, q2, empty});
  empty_estimates += 2;
  const std::vector<double> real = ValuesOf(advisor.Explain(q2).stats);
  std::vector<double> bad = real;
  bad[1] = std::numeric_limits<double>::quiet_NaN();
  const auto jittered = JitteredBatch(advisor.Explain(q1).stats, 7);
  std::vector<std::vector<double>> block(jittered.begin(), jittered.end());
  block.push_back(bad);  // wrong size for q1, and NaN
  advisor.EstimateLog2Batch(q1, block);
  advisor.EstimateLog2Batch(q2, std::vector<std::vector<double>>{real, bad});
  advisor.EstimateLog2Batch(empty, std::vector<std::vector<double>>{{}, {1.0}});
  ++empty_estimates;
  advisor.Explain(empty);
  ++empty_estimates;
  advisor.EstimateBatch(std::vector<Query>{q3, q1});

  const AdvisorMetrics m = advisor.metrics();
  EXPECT_GT(m.witness_hits, 0u);
  EXPECT_GT(m.cold_solves, 0u);
  EXPECT_EQ(m.witness_hits + m.warm_resolves + m.cold_solves,
            m.estimates - empty_estimates);
  // 2 calls of one, a batch of 6, 2 Explains, 8 jittered columns, 1 real
  // column, 1 empty what-if column, 1 Explain, a batch of 2.
  EXPECT_EQ(m.estimates, 23u);
}

TEST(AdvisorBatch, EmptyBatchesAreSafeNoOps) {
  // The DP driver can legitimately produce a level with zero probes;
  // every batch layer must treat an empty batch as a no-op, not UB.
  Catalog db = SmallDb(21);
  CardinalityAdvisor advisor(db);
  const Query q = Parse("R(X,Y), S(Y,Z)");
  const auto stats = advisor.Explain(q).stats;
  auto bound =
      FindBoundEngine("auto")->Compile(StructureOf(q.num_vars(), stats));
  EXPECT_TRUE(
      bound->EvaluateBatch(std::vector<std::vector<double>>{}, false).empty());
  const AdvisorMetrics before = advisor.metrics();
  EXPECT_TRUE(advisor.EstimateLog2Batch(std::vector<Query>{}).empty());
  const std::vector<std::vector<double>> no_values;
  EXPECT_TRUE(advisor.EstimateLog2Batch(q, no_values).empty());
  const AdvisorMetrics after = advisor.metrics();
  EXPECT_EQ(after.batch_calls - before.batch_calls, 2u);
  EXPECT_EQ(after.batch_probes, before.batch_probes);
  EXPECT_EQ(after.estimates, before.estimates);
}

TEST(AdvisorBatch, BatchOfOneMatchesOneCallBitwise) {
  // A batch of one must be indistinguishable from EstimateLog2 — the
  // degenerate case the DP's level-1 loop hits on single-atom queries.
  Catalog db = SmallDb(22);
  for (const char* text : {"R(X,Y)", "R(X,Y), S(Y,Z)",
                           "R(X,Y), S(Y,Z), T(Z,X)"}) {
    const Query q = Parse(text);
    CardinalityAdvisor one_advisor(db);
    CardinalityAdvisor batch_advisor(db);
    const double one = one_advisor.EstimateLog2(q);
    const std::vector<double> batch =
        batch_advisor.EstimateLog2Batch(std::vector<Query>{q});
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0], one) << text;
  }
  // Same for the what-if overload: one value vector, identical call
  // history on both advisors (Explain, then one evaluation of the real
  // values).
  const Query q = Parse("R(X,Y), S(Y,Z)");
  CardinalityAdvisor one_advisor(db);
  CardinalityAdvisor batch_advisor(db);
  const auto values = ValuesOf(one_advisor.Explain(q).stats);
  (void)batch_advisor.Explain(q);
  const double one = one_advisor.EstimateLog2(q);
  const std::vector<double> got = batch_advisor.EstimateLog2Batch(
      q, std::vector<std::vector<double>>{values});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], one);
}

TEST(AdvisorBatch, EmptyQueryRidesBatchesWithUnitBound) {
  // A 0-atom query used to walk into the bound engines' n >= 1 assertion;
  // it now answers log2 1 = 0 (the empty conjunction has one empty tuple)
  // in every entry point, wherever it sits in the batch.
  Catalog db = SmallDb(23);
  const Query empty("empty");
  const Query q1 = Parse("R(X,Y), S(Y,Z)");
  const Query q2 = Parse("R(X,Y), S(Y,Z), T(Z,X)");
  CardinalityAdvisor one_advisor(db);
  EXPECT_EQ(one_advisor.EstimateLog2(empty), 0.0);
  const CardinalityAdvisor::Explanation explained = one_advisor.Explain(empty);
  EXPECT_TRUE(explained.bound.ok());
  EXPECT_EQ(explained.bound.log2_bound, 0.0);
  EXPECT_TRUE(explained.stats.empty());
  const double b1 = one_advisor.EstimateLog2(q1);
  const double b2 = one_advisor.EstimateLog2(q2);

  CardinalityAdvisor first_advisor(db);
  const std::vector<double> first =
      first_advisor.EstimateLog2Batch(std::vector<Query>{empty, q1, q2});
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0], 0.0);
  EXPECT_EQ(first[1], b1);
  EXPECT_EQ(first[2], b2);

  CardinalityAdvisor last_advisor(db);
  const std::vector<double> last =
      last_advisor.EstimateLog2Batch(std::vector<Query>{q1, q2, empty});
  ASSERT_EQ(last.size(), 3u);
  EXPECT_EQ(last[0], b1);
  EXPECT_EQ(last[1], b2);
  EXPECT_EQ(last[2], 0.0);

  // What-if on the empty query: only the empty value vector matches its
  // (empty) statistics set; anything else cannot be priced.
  const std::vector<std::vector<double>> probes = {{}, {1.0}};
  const std::vector<double> what_if =
      first_advisor.EstimateLog2Batch(empty, probes);
  ASSERT_EQ(what_if.size(), 2u);
  EXPECT_EQ(what_if[0], 0.0);
  EXPECT_EQ(what_if[1], kInfNorm);
}

TEST(EvaluateBatch, MixedBoundedAndUnboundedStructureGroups) {
  // The multi-query advisor batch evaluates one structure group at a time;
  // a group whose structure is structurally unbounded must come out
  // unbounded without perturbing the bounded group's results, whichever
  // group goes first.
  const std::vector<ConcreteStatistic> unbounded_stats = {
      Stat(0b01, 0b10, kInfNorm, 5.0)};
  ASSERT_EQ(SolveLp(BuildNormalBoundLp(2, unbounded_stats)).status,
            LpStatus::kUnbounded);
  for (bool unbounded_first : {true, false}) {
    for (const char* name : {"normal", "gamma", "auto"}) {
      auto bounded = FindBoundEngine(name)->Compile(
          StructureOf(3, SimpleStats()));
      auto bounded_ref = FindBoundEngine(name)->Compile(
          StructureOf(3, SimpleStats()));
      auto unbounded = FindBoundEngine(name)->Compile(
          StructureOf(2, unbounded_stats));
      auto unbounded_ref = FindBoundEngine(name)->Compile(
          StructureOf(2, unbounded_stats));
      const auto bounded_batch = JitteredBatch(SimpleStats(), 31);
      const auto unbounded_batch = JitteredBatch(unbounded_stats, 32);
      std::vector<BoundResult> b_results, u_results;
      if (unbounded_first) {
        u_results = unbounded->EvaluateBatch(unbounded_batch, false);
        b_results = bounded->EvaluateBatch(bounded_batch, false);
      } else {
        b_results = bounded->EvaluateBatch(bounded_batch, false);
        u_results = unbounded->EvaluateBatch(unbounded_batch, false);
      }
      ASSERT_EQ(b_results.size(), bounded_batch.size());
      ASSERT_EQ(u_results.size(), unbounded_batch.size());
      const std::string order = unbounded_first ? "u-first" : "b-first";
      for (size_t c = 0; c < bounded_batch.size(); ++c) {
        const BoundResult ref =
            bounded_ref->Evaluate(bounded_batch[c], false);
        ExpectBitwiseEqual(b_results[c], ref,
                           std::string(name) + "/" + order + " bounded " +
                               std::to_string(c));
        EXPECT_TRUE(b_results[c].ok());
      }
      for (size_t c = 0; c < unbounded_batch.size(); ++c) {
        const BoundResult ref =
            unbounded_ref->Evaluate(unbounded_batch[c], false);
        ExpectBitwiseEqual(u_results[c], ref,
                           std::string(name) + "/" + order + " unbounded " +
                               std::to_string(c));
        EXPECT_TRUE(u_results[c].unbounded());
      }
    }
  }
}

TEST(AdvisorBatch, NormCacheEvictionKeepsResultsExact) {
  // A byte budget small enough to evict constantly must never change
  // estimates — eviction recomputes, it does not approximate.
  Catalog db = SmallDb(5);
  AdvisorOptions tight;
  tight.norm_cache.shards = 2;
  tight.norm_cache.byte_budget = 1024;  // a handful of entries
  CardinalityAdvisor tight_advisor(db, tight);
  CardinalityAdvisor roomy_advisor(db);
  for (const char* text :
       {"R(X,Y), S(Y,Z)", "R(X,Y), S(Y,Z), T(Z,X)", "S(X,Y), T(Y,Z)",
        "R(X,Y), T(Y,X)"}) {
    const Query q = Parse(text);
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(tight_advisor.EstimateLog2(q), roomy_advisor.EstimateLog2(q))
          << text;
    }
  }
  EXPECT_GT(tight_advisor.metrics().norm_evictions, 0u);
  EXPECT_EQ(roomy_advisor.metrics().norm_evictions, 0u);
  EXPECT_LE(tight_advisor.CacheBytes(), 1024u);
}

}  // namespace
}  // namespace lpb
