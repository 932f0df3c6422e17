#include "bounds/engine.h"

#include <cassert>
#include <cmath>
#include <set>

#include "bounds/bound_engine.h"
#include "bounds/shannon_cuts.h"
#include "entropy/shannon.h"
#include "lp/lp_problem.h"
#include "relation/degree_sequence.h"

namespace lpb {
namespace {

double BoxBound(int n, const std::vector<ConcreteStatistic>& stats) {
  std::vector<double> ps, log_bs;
  ps.reserve(stats.size());
  log_bs.reserve(stats.size());
  for (const ConcreteStatistic& s : stats) {
    ps.push_back(s.p);
    log_bs.push_back(s.log_b);
  }
  return GammaBoxBound(n, ps, log_bs);
}

BoundResult MakeResult(const LpResult& lp, int n, int num_stats,
                       int cut_rounds) {
  BoundResult result;
  result.status = lp.status;
  result.cut_rounds = cut_rounds;
  result.lp_iterations = lp.iterations;
  result.lp_pricing = lp.pricing;
  result.lp_stats = lp.stats;
  if (lp.status == LpStatus::kUnbounded) {
    result.log2_bound = kInfNorm;
    return result;
  }
  if (lp.status != LpStatus::kOptimal) return result;
  result.log2_bound = lp.objective;
  result.weights.assign(lp.duals.begin(), lp.duals.begin() + num_stats);
  result.h_opt = SetFunction(n);
  const VarSet full = FullSet(n);
  for (VarSet s = 1; s <= full; ++s) result.h_opt[s] = lp.x[s - 1];
  return result;
}

}  // namespace

BoundResult PolymatroidBound(int n, const std::vector<ConcreteStatistic>& stats,
                             const EngineOptions& options) {
  assert(n >= 1 && n <= kMaxVars);
  const int num_vars = (1 << n) - 1;
  const VarSet full = FullSet(n);

  LpProblem lp(num_vars);
  lp.SetObjective(static_cast<int>(full) - 1, 1.0);
  // Statistics constraints come first so duals[i] is the weight of stats[i].
  for (const ConcreteStatistic& stat : stats) {
    lp.AddConstraint(FormToTerms(stat.Lhs()), LpSense::kLe, stat.log_b);
  }
  const int num_stats = static_cast<int>(stats.size());

  if (n <= options.full_lattice_max_n) {
    for (const LinearForm& ineq : ElementalInequalities(n)) {
      lp.AddConstraint(FormToTerms(ineq), LpSense::kGe, 0.0);
    }
    return MakeResult(SolveLp(lp, options.simplex), n, num_stats,
                      /*cut_rounds=*/0);
  }

  // Cutting-plane mode. Box the objective so the relaxation stays bounded,
  // then seed with the cuts that drive chain-style bounds (see
  // SeedShannonCuts).
  const double box = BoxBound(n, stats);
  lp.AddConstraint({{static_cast<int>(full) - 1, 1.0}}, LpSense::kLe, box);
  std::set<uint64_t> present;
  auto add_cut = [&](const ShannonCut& cut) {
    present.insert(cut.Key());
    lp.AddConstraint(FormToTerms(cut.Form(n)), LpSense::kGe, 0.0);
  };
  for (const ShannonCut& cut : SeedShannonCuts(n)) add_cut(cut);

  LpResult lp_result;
  int round = 0;
  for (; round < options.max_cut_rounds; ++round) {
    lp_result = SolveLp(lp, options.simplex);
    if (lp_result.status != LpStatus::kOptimal) break;
    std::vector<ShannonCut> cuts =
        FindViolatedShannonCuts(n, lp_result.x, present, options.cuts_per_round,
                                options.feasibility_eps);
    if (cuts.empty()) break;
    for (const ShannonCut& cut : cuts) add_cut(cut);
  }

  BoundResult result = MakeResult(lp_result, n, num_stats, round);
  if (result.ok() && result.log2_bound >= box * (1.0 - 1e-9)) {
    // Shannon-feasible optimum pinned at the box: genuinely unbounded.
    result.status = LpStatus::kUnbounded;
    result.log2_bound = kInfNorm;
  }
  return result;
}

std::vector<ConcreteStatistic> FilterAgmStatistics(
    const std::vector<ConcreteStatistic>& stats) {
  std::vector<ConcreteStatistic> out;
  for (const ConcreteStatistic& s : stats) {
    if (IsAgmShape({s.sigma, s.p})) out.push_back(s);
  }
  return out;
}

std::vector<ConcreteStatistic> FilterPandaStatistics(
    const std::vector<ConcreteStatistic>& stats) {
  std::vector<ConcreteStatistic> out;
  for (const ConcreteStatistic& s : stats) {
    if (IsPandaShape({s.sigma, s.p})) out.push_back(s);
  }
  return out;
}

}  // namespace lpb
