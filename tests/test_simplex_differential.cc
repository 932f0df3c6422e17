// Randomized differential testing: the revised simplex (lp/tableau.h)
// against the dense-tableau oracle (tests/dense_oracle.h).
//
// This harness generates hundreds of seeded random LPs — mixed <=/>=/=
// senses, quarter-integer coefficient grids and zero right-hand sides
// (heavy degeneracy, exact ratio-test ties), plus naturally occurring
// unbounded and infeasible instances — and asserts the solver agrees with
// the oracle on status and objective, and that each returned witness
// independently satisfies primal feasibility, dual feasibility, and
// complementary slackness. Warm resolves are checked against oracle cold
// solves at the same right-hand side. The random-LP tests run under both
// kernel dispatch modes (SimplexOptions::simd = kAuto and kScalar), whose
// results are bitwise identical by contract (lp/kernels.h), so every seed
// also soaks the scalar table.
//
// The seed is overridable via LPB_DIFF_SEED so CI can run several fixed
// seeds without recompiling; failures print the seed and trial for replay.
//
// The second half tests the solver where it matters: the Γn
// cutting-plane bound LPs (n <= 6 against the oracle over the full
// lattice, and the n = 8 compile checked against the exact
// normal-polymatroid bound).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "bounds/bound_engine.h"
#include "bounds/normal_engine.h"
#include "datagen/gamma_stats.h"
#include "dense_oracle.h"
#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "lp/tableau.h"
#include "relation/degree_sequence.h"
#include "util/random.h"

namespace lpb {
namespace {

uint64_t HarnessSeed() {
  const char* env = std::getenv("LPB_DIFF_SEED");
  if (env != nullptr && *env != '\0') {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 12345;
}

constexpr SimdMode kSimdModes[] = {SimdMode::kAuto, SimdMode::kScalar};

SimplexOptions Simd(SimdMode mode) {
  SimplexOptions options;
  options.simd = mode;
  return options;
}

const char* SimdName(SimdMode mode) {
  return mode == SimdMode::kScalar ? "scalar" : "auto";
}

// Quarter-integer coefficients: exact ties in the ratio test, the regime
// where anti-cycling rules earn their keep.
double GridCoef(Rng& rng, double lo, double hi) {
  const double raw = lo + (hi - lo) * rng.NextDouble();
  return std::round(raw * 4.0) / 4.0;
}

LpProblem RandomLp(Rng& rng) {
  const int n = 1 + static_cast<int>(rng.Uniform(6));
  const int m = 1 + static_cast<int>(rng.Uniform(10));
  LpProblem lp(n);
  for (int j = 0; j < n; ++j) {
    if (rng.Bernoulli(0.85)) lp.SetObjective(j, GridCoef(rng, -1.0, 3.0));
  }
  for (int i = 0; i < m; ++i) {
    std::vector<LpTerm> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.6)) {
        const double c = GridCoef(rng, -2.0, 2.0);
        if (c != 0.0) terms.push_back({j, c});
      }
    }
    if (terms.empty()) terms.push_back({static_cast<int>(rng.Uniform(n)), 1.0});
    // Weighted senses: random = rows are almost always jointly infeasible,
    // so keep them a seasoning rather than the diet.
    const double sense_draw = rng.NextDouble();
    const LpSense sense = sense_draw < 0.55   ? LpSense::kLe
                          : sense_draw < 0.85 ? LpSense::kGe
                                              : LpSense::kEq;
    // Degenerate RHS (0) a third of the time; occasionally negative.
    double rhs = 0.0;
    if (!rng.Bernoulli(0.34)) {
      rhs = GridCoef(rng, rng.Bernoulli(0.15) ? -4.0 : 0.0, 6.0);
    }
    lp.AddConstraint(std::move(terms), sense, rhs);
  }
  // Half the instances get box rows: bounded feasible region, so the
  // optimal-status share stays high while the unboxed half keeps
  // exercising unbounded rays.
  if (rng.Bernoulli(0.5)) {
    for (int j = 0; j < n; ++j) {
      lp.AddConstraint({{j, 1.0}}, LpSense::kLe, GridCoef(rng, 1.0, 20.0));
    }
  }
  return lp;
}

struct WitnessCheck {
  double primal_violation = 0.0;
  double dual_violation = 0.0;
  double slackness_violation = 0.0;
  double duality_gap = 0.0;
};

// Verifies the optimal witness (x, duals) of `result` against `lp` with the
// RHS vector actually solved (empty = the problem's own).
WitnessCheck CheckWitness(const LpProblem& lp, const std::vector<double>& rhs,
                          const LpResult& result) {
  WitnessCheck check;
  const int m = lp.num_constraints();
  auto rhs_of = [&](int i) {
    return rhs.empty() ? lp.constraint(i).rhs : rhs[i];
  };
  // Primal feasibility (x >= 0 plus every constraint).
  for (double xj : result.x) {
    check.primal_violation = std::max(check.primal_violation, -xj);
  }
  for (int i = 0; i < m; ++i) {
    const double lhs = lp.EvalLhs(i, result.x);
    const double b = rhs_of(i);
    double violation = 0.0;
    switch (lp.constraint(i).sense) {
      case LpSense::kLe:
        violation = lhs - b;
        break;
      case LpSense::kGe:
        violation = b - lhs;
        break;
      case LpSense::kEq:
        violation = std::abs(lhs - b);
        break;
    }
    check.primal_violation = std::max(check.primal_violation, violation);
    // Complementary slackness, constraint side: nonzero dual => tight row.
    if (std::abs(result.duals[i]) > 1e-6 &&
        lp.constraint(i).sense != LpSense::kEq) {
      check.slackness_violation =
          std::max(check.slackness_violation, std::abs(lhs - b));
    }
  }
  // Dual feasibility: sign per sense, and reduced costs c_j - y'A_j <= 0
  // for a maximization problem; slackness, variable side: x_j > 0 => the
  // reduced cost is zero.
  std::vector<double> ya(lp.num_vars(), 0.0);
  for (int i = 0; i < m; ++i) {
    const LpConstraint& c = lp.constraint(i);
    switch (c.sense) {
      case LpSense::kLe:
        check.dual_violation = std::max(check.dual_violation, -result.duals[i]);
        break;
      case LpSense::kGe:
        check.dual_violation = std::max(check.dual_violation, result.duals[i]);
        break;
      case LpSense::kEq:
        break;
    }
    for (const LpTerm& t : c.terms) ya[t.var] += result.duals[i] * t.coef;
  }
  for (int j = 0; j < lp.num_vars(); ++j) {
    const double reduced = lp.objective_coef(j) - ya[j];
    check.dual_violation = std::max(check.dual_violation, reduced);
    if (result.x[j] > 1e-6) {
      check.slackness_violation =
          std::max(check.slackness_violation, std::abs(reduced));
    }
  }
  // Strong duality: y'b == objective.
  double dual_obj = 0.0;
  for (int i = 0; i < m; ++i) dual_obj += result.duals[i] * rhs_of(i);
  check.duality_gap = std::abs(dual_obj - result.objective);
  return check;
}

void ExpectAgreement(const LpProblem& lp, const std::vector<double>& rhs,
                     const LpResult& oracle, const LpResult& revised,
                     const std::string& context) {
  ASSERT_EQ(oracle.status, revised.status) << context;
  // The LpResult contract: sized x/duals regardless of status.
  EXPECT_EQ(oracle.x.size(), static_cast<size_t>(lp.num_vars())) << context;
  EXPECT_EQ(revised.x.size(), static_cast<size_t>(lp.num_vars())) << context;
  EXPECT_EQ(oracle.duals.size(), static_cast<size_t>(lp.num_constraints()))
      << context;
  EXPECT_EQ(revised.duals.size(), static_cast<size_t>(lp.num_constraints()))
      << context;
  if (oracle.status != LpStatus::kOptimal) return;
  const double tol = 1e-7 * std::max(1.0, std::abs(oracle.objective));
  EXPECT_NEAR(oracle.objective, revised.objective, tol) << context;
  for (const LpResult* result : {&oracle, &revised}) {
    const char* which = result == &oracle ? " [oracle]" : " [revised]";
    WitnessCheck check = CheckWitness(lp, rhs, *result);
    EXPECT_LE(check.primal_violation, 1e-6) << context << which;
    EXPECT_LE(check.dual_violation, 1e-6) << context << which;
    EXPECT_LE(check.slackness_violation, 1e-5) << context << which;
    EXPECT_LE(check.duality_gap,
              1e-6 * std::max(1.0, std::abs(result->objective)))
        << context << which;
  }
}

// Every LP under both kernel dispatch modes.
TEST(SimplexDifferential, FiveHundredRandomLpsAgree) {
  const uint64_t seed = HarnessSeed();
  Rng rng(seed);
  int optimal = 0, unbounded = 0, infeasible = 0;
  for (int trial = 0; trial < 500; ++trial) {
    LpProblem lp = RandomLp(rng);
    const LpResult oracle = DenseOracleSolve(lp);
    for (SimdMode mode : kSimdModes) {
      const LpResult r = SimplexTableau(lp, Simd(mode)).Solve();
      const std::string context = "seed " + std::to_string(seed) +
                                  " trial " + std::to_string(trial) + " " +
                                  SimdName(mode);
      ExpectAgreement(lp, {}, oracle, r, context);
      if (testing::Test::HasFatalFailure()) return;
    }
    switch (oracle.status) {
      case LpStatus::kOptimal:
        ++optimal;
        break;
      case LpStatus::kUnbounded:
        ++unbounded;
        break;
      case LpStatus::kInfeasible:
        ++infeasible;
        break;
      case LpStatus::kIterationLimit:
        FAIL() << "iteration limit on a tiny LP, seed " << seed << " trial "
               << trial;
    }
  }
  // The generator must exercise every verdict, not just the happy path.
  EXPECT_GT(optimal, 100) << "seed " << seed;
  EXPECT_GT(unbounded + infeasible, 50) << "seed " << seed;
}

// Warm-path differential: re-solve the same matrix at redrawn RHS vectors;
// the witness/warm/cold cascade must land on the verdict and objective of
// an oracle cold solve at each RHS (statuses may legitimately change per
// RHS — infeasible redraws included), under both kernel dispatch modes.
TEST(SimplexDifferential, RandomResolvesAgree) {
  const uint64_t seed = HarnessSeed() ^ 0x9e3779b97f4a7c15ull;
  Rng rng(seed);
  for (int trial = 0; trial < 60; ++trial) {
    LpProblem lp = RandomLp(rng);
    const LpStatus cold = DenseOracleSolve(lp).status;
    for (SimdMode mode : kSimdModes) {
      SimplexTableau revised(lp, Simd(mode));
      if (revised.Solve().status != cold) {
        ADD_FAILURE() << "cold status mismatch, seed " << seed << " trial "
                      << trial << " " << SimdName(mode);
        continue;
      }
      // Both modes replay the same redraws.
      Rng redraws(seed ^ static_cast<uint64_t>(trial));
      std::vector<double> rhs(lp.num_constraints());
      for (int redraw = 0; redraw < 8; ++redraw) {
        for (int i = 0; i < lp.num_constraints(); ++i) {
          const double base = lp.constraint(i).rhs;
          // Mix small perturbations (witness-friendly) with full redraws
          // (dual-simplex and cold-fallback territory).
          rhs[i] = redraw % 2 == 0 ? base * (0.9 + 0.2 * redraws.NextDouble())
                                   : GridCoef(redraws, -2.0, 6.0);
        }
        const LpResult r = revised.ResolveWithRhs(rhs);
        const std::string context =
            "seed " + std::to_string(seed) + " trial " +
            std::to_string(trial) + " redraw " + std::to_string(redraw) +
            " " + SimdName(mode);
        ExpectAgreement(lp, rhs, DenseOracleSolve(lp, rhs), r, context);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// The unstable-update fallback: max_basis_updates = 1 forces the
// refactorize path after every single pivot, so every pivot exercises the
// update-then-refactorize transition; results must stay in lockstep with
// the oracle across cold solves and warm re-solves alike, under both
// kernel dispatch modes.
TEST(SimplexDifferential, PerPivotRefactorizeStaysInLockstep) {
  const uint64_t seed = HarnessSeed() ^ 0xacceull;
  Rng rng(seed);
  for (int trial = 0; trial < 60; ++trial) {
    LpProblem lp = RandomLp(rng);
    const LpResult oracle = DenseOracleSolve(lp);
    const std::string context = "per-pivot-refactorize seed " +
                                std::to_string(seed) + " trial " +
                                std::to_string(trial);
    // Both modes replay the same redraws.
    std::vector<std::vector<double>> redraws;
    if (oracle.status == LpStatus::kOptimal) {
      for (int redraw = 0; redraw < 4; ++redraw) {
        std::vector<double> rhs(lp.num_constraints());
        for (int i = 0; i < lp.num_constraints(); ++i) {
          const double base = lp.constraint(i).rhs;
          rhs[i] = redraw % 2 == 0 ? base * (0.9 + 0.2 * rng.NextDouble())
                                   : GridCoef(rng, -2.0, 6.0);
        }
        redraws.push_back(std::move(rhs));
      }
    }
    for (SimdMode mode : kSimdModes) {
      SimplexOptions churn = Simd(mode);
      churn.max_basis_updates = 1;
      SimplexTableau revised(lp, churn);
      const std::string mode_context = context + " " + SimdName(mode);
      ExpectAgreement(lp, {}, oracle, revised.Solve(), mode_context);
      if (testing::Test::HasFatalFailure()) return;
      for (size_t redraw = 0; redraw < redraws.size(); ++redraw) {
        const std::vector<double>& rhs = redraws[redraw];
        ExpectAgreement(lp, rhs, DenseOracleSolve(lp, rhs),
                        revised.ResolveWithRhs(rhs),
                        mode_context + " redraw " + std::to_string(redraw));
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// Regression: the solver's internal anti-degeneracy perturbation (graded
// up to ~1e-5 per row) must not change *verdicts*. A problem infeasible by
// less than the shifts opens up under perturbation, and an unconstrained
// objective then rides a ray — so a naive implementation reports
// kUnbounded where the oracle reports kInfeasible. The fix validates
// feasibility at the true RHS before trusting a perturbed verdict.
TEST(SimplexDifferential, PerturbationDoesNotMaskNearInfeasibility) {
  LpProblem lp(2);
  lp.SetObjective(0, 1.0);                              // x0 unconstrained
  lp.AddConstraint({{1, 1.0}}, LpSense::kGe, 4e-6);     // row 0: small grade
  for (int i = 0; i < 49; ++i) {
    lp.AddConstraint({{1, 1.0}}, LpSense::kLe, 1.0);    // filler rows
  }
  lp.AddConstraint({{1, 1.0}}, LpSense::kLe, 0.0);      // row 50: big grade
  // True problem: x1 >= 4e-6 and x1 <= 0 — infeasible by more than the
  // phase-1 tolerance. Perturbed: x1 in [~4.1e-6, ~5.1e-6] — feasible,
  // and max x0 is then unbounded.
  EXPECT_EQ(DenseOracleSolve(lp).status, LpStatus::kInfeasible);
  EXPECT_EQ(SimplexTableau(lp).Solve().status, LpStatus::kInfeasible);
}

// ---------------------------------------------------------------------------
// The LPs the revised simplex exists for: Γn cutting-plane bounds.

// Cardinality-style statistics over random small variable sets plus
// simple conditionals deg(V|u): the advisor's statistics shapes. Shared
// with bench_throughput's CI-gated gamma_n8 pivot workload
// (datagen/gamma_stats.h) — the pivot baselines gate the LP population
// this harness validates, so the generator must not fork.
std::vector<ConcreteStatistic> RandomSimpleStats(Rng& rng, int n,
                                                 int count) {
  return RandomSimpleGammaStats(rng, n, count);
}

TEST(SimplexDifferential, GammaCuttingPlaneMatchesOracleFullLattice) {
  const uint64_t seed = HarnessSeed() ^ 0xabcdef12345ull;
  Rng rng(seed);
  for (int n = 3; n <= 6; ++n) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::vector<ConcreteStatistic> stats =
          RandomSimpleStats(rng, n, 2 + n);
      // Reference: the oracle over the fully materialized lattice.
      const LpResult reference = DenseOracleSolve(FullLatticeLp(n, stats));
      // Under test: the full-lattice and the cutting-plane (forced) modes.
      for (int full_lattice_max_n : {8, 2}) {
        EngineOptions options;
        options.full_lattice_max_n = full_lattice_max_n;
        const BoundResult result = ComputeBound("gamma", n, stats, options);
        const std::string context =
            "seed " + std::to_string(seed) + " n " + std::to_string(n) +
            " trial " + std::to_string(trial) +
            (full_lattice_max_n >= n ? " full lattice" : " cutting plane");
        ASSERT_EQ(result.status, reference.status) << context;
        if (reference.status == LpStatus::kOptimal) {
          EXPECT_NEAR(result.log2_bound, reference.objective,
                      1e-6 * std::max(1.0, std::abs(reference.objective)))
              << context;
        }
      }
    }
  }
}

// Warm-vs-cold cutting-plane differential: the same compile driven with
// incremental row appends (SimplexOptions::cut_warm_start on, the
// default) and with the pre-append behavior (every growth round rebuilds
// the tableau and re-solves two-phase) must converge to the same bound.
// The *cut families* may differ: each round's LP is degenerate, warm dual
// repair and a cold two-phase solve can land on different equal-value
// optimal vertices, and different vertices separate different cuts — the
// smoke runs show the warm driver converging in fewer rounds. What both
// drivers guarantee is termination at an optimum no un-pooled Shannon cut
// separates, so the converged bound is the full-family optimum either
// way; that value is what the differential pins, along with the warm
// driver actually exercising the append path (row_appends > 0) and the
// cold driver never doing so.
TEST(SimplexDifferential, WarmCutAppendsMatchColdCutGrowth) {
  const uint64_t base_seed = HarnessSeed();
  for (uint64_t salt : {0x11ull, 0x22ull, 0x33ull}) {
    Rng rng(base_seed ^ salt);
    const int n = 6;
    const std::vector<ConcreteStatistic> stats = RandomSimpleStats(rng, n, 8);
    EngineOptions cut;
    cut.full_lattice_max_n = 3;  // force cutting-plane mode

    cut.simplex.cut_warm_start = CutWarmStart::kOn;
    auto warm_bound =
        FindBoundEngine("gamma")->Compile(StructureOf(n, stats), cut);
    cut.simplex.cut_warm_start = CutWarmStart::kOff;
    auto cold_bound =
        FindBoundEngine("gamma")->Compile(StructureOf(n, stats), cut);

    const std::string context = "seed " + std::to_string(base_seed ^ salt);
    // Two evaluations per driver: the compile-time values (cold growth
    // from the seed cuts) and a scaled redraw (typically more growth).
    std::vector<double> values = ValuesOf(stats);
    for (int round = 0; round < 2; ++round) {
      const BoundResult warm = warm_bound->Evaluate(values, false);
      const BoundResult cold = cold_bound->Evaluate(values, false);
      ASSERT_EQ(warm.status, cold.status) << context;
      if (cold.ok()) {
        EXPECT_NEAR(warm.log2_bound, cold.log2_bound,
                    1e-6 * std::max(1.0, std::abs(cold.log2_bound)))
            << context;
      }
      // The cold driver must never touch the append path; the warm
      // driver must have used it whenever it grew the pool.
      EXPECT_EQ(cold.lp_stats.row_appends, 0) << context;
      EXPECT_EQ(cold.lp_stats.warm_cut_rounds, 0) << context;
      if (round == 0 && warm.cut_rounds > 0) {
        EXPECT_GT(warm.lp_stats.warm_cut_rounds, 0) << context;
        EXPECT_GT(warm.lp_stats.row_appends, 0) << context;
      }
      for (double& v : values) v *= 1.4;
    }
  }
}

// Forrest–Tomlin long-chain differential: with the update budget raised,
// one solve carries 100+ FT updates between refactorizations, and the
// factorization must stay accurate across the whole chain, verified
// against the exact normal-polymatroid bound (the oracle on the Nn LP).
TEST(SimplexDifferential, ForrestTomlinCarriesLongUpdateChains) {
  Rng rng(HarnessSeed() ^ 0xfeedull);
  const int n = 7;
  const std::vector<ConcreteStatistic> stats = RandomSimpleStats(rng, n, 10);
  const LpResult reference = DenseOracleSolve(BuildNormalBoundLp(n, stats));
  ASSERT_EQ(reference.status, LpStatus::kOptimal);

  EngineOptions cut;
  cut.full_lattice_max_n = 4;  // force cutting-plane mode
  cut.simplex.max_basis_updates = 100000;  // budget >> any solve's pivots
  auto compiled =
      FindBoundEngine("gamma")->Compile(StructureOf(n, stats), cut);
  BoundResult result = compiled->Evaluate(ValuesOf(stats));
  const char* context = "long-chain";
  ASSERT_EQ(result.status, LpStatus::kOptimal) << context;
  EXPECT_NEAR(result.log2_bound, reference.objective,
              1e-6 * std::max(1.0, std::abs(reference.objective)))
      << context;
  // The chains actually ran long: hundreds of FT updates total, and the
  // only refactorizations left are fill-budget or stability-forced ones
  // — far fewer than the update count.
  EXPECT_GE(result.lp_stats.ft_updates, 100) << context;
  EXPECT_LT(result.lp_stats.refactorizations,
            result.lp_stats.ft_updates / 50 + 5)
      << context << " refac=" << result.lp_stats.refactorizations
      << " ft=" << result.lp_stats.ft_updates;
}

// The acceptance bar from the roadmap: the revised simplex compiles and
// evaluates a Γn *cutting-plane* bound at n = 8, where a dense tableau
// grinds (its per-pivot sweep is O(rows × 2^n) on every cut round). The
// statistics are simple, so the exact normal-polymatroid bound (Theorem
// 6.1, the oracle on the Nn LP) is an independent reference for the value.
TEST(SimplexDifferential, RevisedCompilesGammaCuttingPlaneAtN8) {
  Rng rng(HarnessSeed() ^ 0x5151ull);
  const int n = 8;
  const std::vector<ConcreteStatistic> stats = RandomSimpleStats(rng, n, 12);
  const LpResult reference = DenseOracleSolve(BuildNormalBoundLp(n, stats));
  ASSERT_EQ(reference.status, LpStatus::kOptimal);

  const BoundEngine* gamma = FindBoundEngine("gamma");
  ASSERT_NE(gamma, nullptr);
  EngineOptions cut;
  cut.full_lattice_max_n = 4;  // force cutting-plane mode at n = 8
  const char* context = "n = 8";
  auto compiled = gamma->Compile(StructureOf(n, stats), cut);
  BoundResult result = compiled->Evaluate(ValuesOf(stats));
  ASSERT_EQ(result.status, LpStatus::kOptimal) << context;
  EXPECT_NEAR(result.log2_bound, reference.objective,
              1e-6 * std::max(1.0, std::abs(reference.objective)))
      << context;

  // Compile-once / evaluate-many: scaled values re-price against the
  // cached factorized basis without recompiling the cut set.
  std::vector<double> scaled = ValuesOf(stats);
  for (double& v : scaled) v *= 1.05;
  BoundResult rescored = compiled->Evaluate(scaled, /*want_h_opt=*/false);
  ASSERT_EQ(rescored.status, LpStatus::kOptimal) << context;
  EXPECT_NEAR(rescored.log2_bound, reference.objective * 1.05,
              1e-5 * std::max(1.0, std::abs(reference.objective)))
      << context;
}

}  // namespace
}  // namespace lpb
