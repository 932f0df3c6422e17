#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bounds/bound_engine.h"
#include "bounds/normal_engine.h"
#include "dense_oracle.h"
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

// Triangle cardinalities: the AGM bound is 1.5 * log_b.
std::vector<ConcreteStatistic> TriangleStats(double log_b) {
  return {Stat(0, 0b011, 1.0, log_b), Stat(0, 0b110, 1.0, log_b),
          Stat(0, 0b101, 1.0, log_b)};
}

// Simple statistics for a path query over n variables: per edge a
// cardinality, both ℓ2 degree norms and one ℓ∞ degree norm.
std::vector<ConcreteStatistic> PathStats(int n) {
  std::vector<ConcreteStatistic> stats;
  for (int i = 0; i + 1 < n; ++i) {
    const VarSet u = VarBit(i), v = VarBit(i + 1);
    stats.push_back(Stat(0, u | v, 1.0, 10.0));
    stats.push_back(Stat(u, v, 2.0, 6.0));
    stats.push_back(Stat(v, u, 2.0, 6.0));
    stats.push_back(Stat(u, v, kInfNorm, 3.0));
  }
  return stats;
}

// Independent references: the dense-tableau oracle on LPs written out in
// the tests, sharing no code with the compiled engines. Γn over the full
// lattice; Nn through the unpruned builder.
LpResult GammaReference(int n, const std::vector<ConcreteStatistic>& stats) {
  return DenseOracleSolve(FullLatticeLp(n, stats));
}
LpResult NormalReference(int n, const std::vector<ConcreteStatistic>& stats) {
  return DenseOracleSolve(BuildNormalBoundLp(n, stats));
}

// The classic filters, spelled out here rather than through the engines'
// shape predicates: AGM keeps cardinalities, PANDA keeps p ∈ {1, ∞}.
std::vector<ConcreteStatistic> AgmOnly(
    const std::vector<ConcreteStatistic>& stats) {
  std::vector<ConcreteStatistic> out;
  for (const ConcreteStatistic& s : stats) {
    if (s.p == 1.0 && s.sigma.u == 0) out.push_back(s);
  }
  return out;
}
std::vector<ConcreteStatistic> PandaOnly(
    const std::vector<ConcreteStatistic>& stats) {
  std::vector<ConcreteStatistic> out;
  for (const ConcreteStatistic& s : stats) {
    if (s.p == 1.0 || s.p == kInfNorm) out.push_back(s);
  }
  return out;
}

// Asserts that evaluating `compiled` at the values of `stats` reproduces
// the reference solve (status and bound) and carries a valid certificate.
void ExpectMatchesReference(CompiledBound& compiled,
                            const std::vector<ConcreteStatistic>& stats,
                            const LpResult& reference,
                            const std::string& context) {
  BoundResult result = compiled.Evaluate(ValuesOf(stats));
  ASSERT_EQ(result.status, reference.status) << context;
  if (reference.status == LpStatus::kUnbounded) {
    EXPECT_EQ(result.log2_bound, kInfNorm) << context;
    return;
  }
  if (reference.status != LpStatus::kOptimal) return;
  EXPECT_NEAR(result.log2_bound, reference.objective, 1e-6) << context;
  // The witness certifies the bound against these statistics.
  ASSERT_EQ(result.weights.size(), stats.size()) << context;
  double certified = 0.0;
  for (size_t i = 0; i < stats.size(); ++i) {
    certified += result.weights[i] * stats[i].log_b;
  }
  EXPECT_NEAR(certified, result.log2_bound, 1e-5) << context;
  // h* is a feasible polymatroid witness achieving the bound.
  EXPECT_NEAR(result.h_opt[FullSet(compiled.structure().n)],
              result.log2_bound, 1e-6)
      << context;
}

TEST(BoundEngineRegistry, KnowsAllEngines) {
  for (std::string_view name : BoundEngineNames()) {
    const BoundEngine* engine = FindBoundEngine(name);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(engine->name(), name);
  }
  EXPECT_EQ(FindBoundEngine("no-such-engine"), nullptr);
}

TEST(BoundEngineRegistry, NormalRejectsNonSimpleShapes) {
  auto stats = TriangleStats(10.0);
  stats.push_back(Stat(0b011, 0b100, 2.0, 4.0));  // |U| = 2: not simple
  const BoundStructure structure = StructureOf(3, stats);
  EXPECT_FALSE(FindBoundEngine("normal")->Supports(structure));
  EXPECT_TRUE(FindBoundEngine("gamma")->Supports(structure));
  EXPECT_TRUE(FindBoundEngine("auto")->Supports(structure));
}

TEST(StructureKey, DistinguishesShapesAndCollapsesValues) {
  auto stats_a = TriangleStats(10.0);
  auto stats_b = TriangleStats(99.0);  // same shapes, different values
  EXPECT_EQ(StructureKey(StructureOf(3, stats_a)),
            StructureKey(StructureOf(3, stats_b)));
  auto stats_c = stats_a;
  stats_c[0].p = 2.0;
  EXPECT_NE(StructureKey(StructureOf(3, stats_a)),
            StructureKey(StructureOf(3, stats_c)));
  EXPECT_NE(StructureKey(StructureOf(3, stats_a)),
            StructureKey(StructureOf(4, stats_a)));
}

TEST(CompiledBound, TriangleMatchesAndReusesWitness) {
  auto stats = TriangleStats(10.0);
  auto compiled =
      FindBoundEngine("auto")->Compile(StructureOf(3, stats));
  ExpectMatchesReference(*compiled, stats, GammaReference(3, stats), "first");
  // Re-evaluations at scaled values keep the basis optimal: witness path.
  for (double log_b : {12.0, 8.0, 20.0}) {
    auto scaled = TriangleStats(log_b);
    ExpectMatchesReference(*compiled, scaled, GammaReference(3, scaled),
                           "scaled");
  }
  const EvalCounters& c = compiled->counters();
  EXPECT_EQ(c.evaluations, 4u);
  EXPECT_EQ(c.cold_solves, 1u);
  EXPECT_GE(c.witness_hits, 3u);
}

// Randomized equivalence: compiled evaluation must match the oracle on
// both bound LPs across random simple-statistics instances,
// including value redraws that force the warm-start fallback.
TEST(CompiledBound, RandomSimpleInstancesMatchBothEngines) {
  Rng rng(41);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + static_cast<int>(rng.Uniform(4));  // 2..5
    const VarSet full = FullSet(n);
    std::vector<ConcreteStatistic> stats;
    // Cardinality assertions over random variable subsets.
    const int num_card = 1 + static_cast<int>(rng.Uniform(3));
    for (int k = 0; k < num_card; ++k) {
      VarSet v = 1 + static_cast<VarSet>(rng.Uniform(full));
      stats.push_back(Stat(0, v, 1.0, 2.0 + 10.0 * rng.NextDouble()));
    }
    // Simple conditionals with random norms.
    const int num_cond = static_cast<int>(rng.Uniform(5));
    for (int k = 0; k < num_cond; ++k) {
      const int u_var = static_cast<int>(rng.Uniform(n));
      VarSet v = 1 + static_cast<VarSet>(rng.Uniform(full));
      v &= ~VarBit(u_var);
      if (v == 0) continue;
      const double p = rng.NextDouble() < 0.3
                           ? kInfNorm
                           : 1.0 + std::floor(4.0 * rng.NextDouble());
      stats.push_back(Stat(VarBit(u_var), v, p, 1.0 + 8.0 * rng.NextDouble()));
    }

    auto compiled_auto =
        FindBoundEngine("auto")->Compile(StructureOf(n, stats));
    auto compiled_gamma =
        FindBoundEngine("gamma")->Compile(StructureOf(n, stats));
    for (int redraw = 0; redraw < 4; ++redraw) {
      if (redraw > 0) {
        for (ConcreteStatistic& s : stats) {
          // Mix gentle scalings with drastic redraws.
          s.log_b = redraw % 2 == 1 ? s.log_b * (0.8 + 0.4 * rng.NextDouble())
                                    : 0.5 + 12.0 * rng.NextDouble();
        }
      }
      const std::string context =
          "trial " + std::to_string(trial) + " redraw " +
          std::to_string(redraw);
      // Simple statistics: Γn and Nn agree (Theorem 6.1) and the compiled
      // paths must reproduce both.
      const LpResult gamma_ref = GammaReference(n, stats);
      const LpResult normal_ref = NormalReference(n, stats);
      ASSERT_EQ(gamma_ref.status, normal_ref.status) << context;
      if (gamma_ref.status == LpStatus::kOptimal) {
        EXPECT_NEAR(gamma_ref.objective, normal_ref.objective, 1e-6)
            << context;
      }
      ExpectMatchesReference(*compiled_auto, stats, normal_ref, context);
      ExpectMatchesReference(*compiled_gamma, stats, gamma_ref, context);
    }
  }
}

TEST(CompiledBound, UnboundedStructureStaysUnbounded) {
  // An ℓ∞ conditional alone never bounds h(X): the LP is unbounded for
  // every value, and after the first verdict the compiled bound
  // short-circuits without solving.
  std::vector<ConcreteStatistic> stats = {Stat(0b01, 0b10, kInfNorm, 5.0)};
  ASSERT_EQ(NormalReference(2, stats).status, LpStatus::kUnbounded);
  auto compiled = FindBoundEngine("auto")->Compile(StructureOf(2, stats));
  BoundResult first = compiled->Evaluate({5.0});
  EXPECT_TRUE(first.unbounded());
  EXPECT_EQ(first.log2_bound, kInfNorm);
  BoundResult second = compiled->Evaluate({9.0});
  EXPECT_TRUE(second.unbounded());
  EXPECT_EQ(second.eval_path, LpEvalPath::kWitness);
  EXPECT_EQ(compiled->counters().witness_hits, 1u);
}

TEST(CompiledBound, CuttingPlaneModeMatchesFullLattice) {
  // Force the compiled Γn engine into cutting-plane mode at a size where
  // the full lattice is still cheap enough to serve as the reference.
  EngineOptions cut_options;
  cut_options.full_lattice_max_n = 3;
  const int n = 5;
  auto stats = PathStats(n);
  auto compiled =
      FindBoundEngine("gamma")->Compile(StructureOf(n, stats), cut_options);
  for (int redraw = 0; redraw < 3; ++redraw) {
    if (redraw > 0) {
      Rng rng(100 + redraw);
      for (ConcreteStatistic& s : stats) {
        s.log_b *= 0.5 + rng.NextDouble();
      }
    }
    ExpectMatchesReference(*compiled, stats, GammaReference(n, stats),
                           "redraw " + std::to_string(redraw));
  }
}

TEST(CompiledBound, AgmFilterMatchesFilteredReference) {
  auto stats = PathStats(4);
  const auto agm_only = AgmOnly(stats);
  ASSERT_LT(agm_only.size(), stats.size());
  auto compiled = FindBoundEngine("agm")->Compile(StructureOf(4, stats));
  BoundResult result = compiled->Evaluate(ValuesOf(stats));
  const LpResult reference = GammaReference(4, agm_only);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(reference.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.log2_bound, reference.objective, 1e-6);
  // Weights are aligned with the FULL statistics list: zero off-filter,
  // and the certificate still verifies against the full value vector.
  ASSERT_EQ(result.weights.size(), stats.size());
  double certified = 0.0;
  for (size_t i = 0; i < stats.size(); ++i) {
    if (!(stats[i].p == 1.0 && stats[i].sigma.u == 0)) {
      EXPECT_EQ(result.weights[i], 0.0) << i;
    }
    certified += result.weights[i] * stats[i].log_b;
  }
  EXPECT_NEAR(certified, result.log2_bound, 1e-5);
}

TEST(CompiledBound, PandaFilterMatchesFilteredReference) {
  auto stats = PathStats(4);
  const auto panda_only = PandaOnly(stats);
  ASSERT_LT(panda_only.size(), stats.size());
  auto compiled = FindBoundEngine("panda")->Compile(StructureOf(4, stats));
  BoundResult result = compiled->Evaluate(ValuesOf(stats));
  const LpResult reference = GammaReference(4, panda_only);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(reference.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.log2_bound, reference.objective, 1e-6);
  // PANDA uses a subset of the statistics, so it can never beat the
  // all-norms bound.
  const LpResult all_norms = GammaReference(4, stats);
  ASSERT_EQ(all_norms.status, LpStatus::kOptimal);
  EXPECT_GE(result.log2_bound, all_norms.objective - 1e-9);
}

TEST(CompiledBound, SkippingHOptKeepsBoundAndWeights) {
  auto stats = TriangleStats(10.0);
  auto compiled = FindBoundEngine("auto")->Compile(StructureOf(3, stats));
  BoundResult lean = compiled->Evaluate(ValuesOf(stats), /*want_h_opt=*/false);
  BoundResult rich = compiled->Evaluate(ValuesOf(stats), /*want_h_opt=*/true);
  ASSERT_TRUE(lean.ok());
  EXPECT_NEAR(lean.log2_bound, rich.log2_bound, 1e-9);
  EXPECT_EQ(lean.weights.size(), rich.weights.size());
  EXPECT_EQ(lean.h_opt.num_vars(), 0);   // not materialized
  EXPECT_EQ(lean.h_opt.size(), 0u);
  EXPECT_EQ(rich.h_opt.num_vars(), 3);
}

TEST(CompiledBound, DefaultResultHoldsNoSetFunctionStorage) {
  // Batch evaluation fills vectors of default results and overwrites them,
  // so a default BoundResult's h_opt must not allocate. SetFunction(0), the
  // function on zero variables, keeps its one entry h(∅).
  EXPECT_EQ(BoundResult{}.h_opt.size(), 0u);
  EXPECT_EQ(SetFunction().size(), 0u);
  EXPECT_EQ(SetFunction(0).size(), 1u);
  EXPECT_EQ(SetFunction(0)[0], 0.0);
}

// --- One-shot bounds: ComputeBound is a compile plus one evaluate --------

// A random statistics set over n variables. `kind` 0: simple, with p < 1
// and ℓ∞ norms among the conditionals; 1: adds a non-simple (|U| = 2)
// conditional; 2: unbounded — no statistic mentions the last variable.
std::vector<ConcreteStatistic> RandomStats(Rng& rng, int n, int kind) {
  const VarSet full = FullSet(n);
  const VarSet covered = kind == 2 ? full & ~VarBit(n - 1) : full;
  std::vector<ConcreteStatistic> stats;
  const int num_card = 1 + static_cast<int>(rng.Uniform(3));
  for (int k = 0; k < num_card; ++k) {
    const VarSet v = (1 + static_cast<VarSet>(rng.Uniform(full))) & covered;
    if (v != 0) stats.push_back(Stat(0, v, 1.0, 2.0 + 10.0 * rng.NextDouble()));
  }
  // Every covered variable gets a cardinality, so kinds 0 and 1 are bounded.
  for (int i = 0; i < n; ++i) {
    if (Contains(covered, i)) {
      stats.push_back(Stat(0, VarBit(i), 1.0, 3.0 + 6.0 * rng.NextDouble()));
    }
  }
  const double norms[] = {0.5, 1.0, 2.0, 3.0, kInfNorm};
  const int num_cond = 1 + static_cast<int>(rng.Uniform(4));
  for (int k = 0; k < num_cond; ++k) {
    const int u_var = static_cast<int>(rng.Uniform(n));
    const double p = norms[rng.Uniform(5)];
    const VarSet v = (1 + static_cast<VarSet>(rng.Uniform(full))) &
                     ~VarBit(u_var) & covered;
    if (v == 0 || !Contains(covered, u_var)) continue;
    stats.push_back(Stat(VarBit(u_var), v, p, 1.0 + 8.0 * rng.NextDouble()));
  }
  if (kind == 1 && n >= 3) {
    stats.push_back(Stat(0b011, full & ~VarSet{0b011}, 2.0,
                         1.0 + 4.0 * rng.NextDouble()));
  }
  return stats;
}

void ExpectFailed(const BoundResult& result, const std::string& context) {
  EXPECT_EQ(result.status, LpStatus::kIterationLimit) << context;
  EXPECT_EQ(result.log2_bound, kInfNorm) << context;
  EXPECT_TRUE(result.weights.empty()) << context;
}

TEST(ComputeBound, EqualsCompileEvaluateAndOracleForEveryEngine) {
  Rng rng(2027);
  int checked[3] = {0, 0, 0};  // optimal, unbounded, unsupported
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 2 + static_cast<int>(rng.Uniform(4));  // 2..5
    const int kind = trial % 3;
    const std::vector<ConcreteStatistic> stats = RandomStats(rng, n, kind);
    const BoundStructure structure = StructureOf(n, stats);
    for (std::string_view name : BoundEngineNames()) {
      const std::string context = "trial " + std::to_string(trial) +
                                  " kind " + std::to_string(kind) + " " +
                                  std::string(name);
      const BoundEngine* engine = FindBoundEngine(name);
      ASSERT_NE(engine, nullptr) << context;
      const BoundResult one_shot = ComputeBound(name, n, stats);
      if (!engine->Supports(structure)) {
        ExpectFailed(one_shot, context);
        ++checked[2];
        continue;
      }
      // Bit for bit what a fresh compile and one evaluate return.
      const BoundResult compiled =
          engine->Compile(structure)->Evaluate(ValuesOf(stats));
      ASSERT_EQ(one_shot.status, compiled.status) << context;
      EXPECT_EQ(one_shot.log2_bound, compiled.log2_bound) << context;
      EXPECT_EQ(one_shot.weights, compiled.weights) << context;
      EXPECT_EQ(one_shot.alpha, compiled.alpha) << context;
      EXPECT_EQ(one_shot.eval_path, LpEvalPath::kCold) << context;

      // And the oracle's value on the engine's LP, built independently.
      const std::vector<ConcreteStatistic> kept =
          name == "agm" ? AgmOnly(stats)
                        : name == "panda" ? PandaOnly(stats) : stats;
      const LpResult reference =
          name == "normal" ? NormalReference(n, kept) : GammaReference(n, kept);
      ASSERT_EQ(one_shot.status, reference.status) << context;
      if (reference.status == LpStatus::kUnbounded) {
        EXPECT_EQ(one_shot.log2_bound, kInfNorm) << context;
        ++checked[1];
        continue;
      }
      ASSERT_EQ(reference.status, LpStatus::kOptimal) << context;
      EXPECT_NEAR(one_shot.log2_bound, reference.objective,
                  1e-6 * std::max(1.0, std::abs(reference.objective)))
          << context;
      ASSERT_EQ(one_shot.weights.size(), stats.size()) << context;
      ++checked[0];
    }
  }
  // Every branch above actually ran.
  EXPECT_GT(checked[0], 0);
  EXPECT_GT(checked[1], 0);
  EXPECT_GT(checked[2], 0);
}

TEST(ComputeBound, UnknownEngineOrUnsupportedStructureFails) {
  const auto tri = TriangleStats(10.0);
  ExpectFailed(ComputeBound("no-such-engine", 3, tri), "unknown name");
  ExpectFailed(ComputeBound("", 3, tri), "empty name");
  auto non_simple = tri;
  non_simple.push_back(Stat(0b011, 0b100, 2.0, 4.0));
  ExpectFailed(ComputeBound("normal", 3, non_simple), "normal, non-simple");
  for (std::string_view name : BoundEngineNames()) {
    ExpectFailed(ComputeBound(name, 0, {}), std::string(name) + " n = 0");
    ExpectFailed(ComputeBound(name, kMaxVars + 1, {}),
                 std::string(name) + " n > kMaxVars");
  }
  // The supported neighbours of those structures do bound.
  EXPECT_TRUE(ComputeBound("gamma", 3, non_simple).ok());
  EXPECT_TRUE(ComputeBound("normal", 3, tri).ok());
}

}  // namespace
}  // namespace lpb
