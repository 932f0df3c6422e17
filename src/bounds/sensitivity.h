// Dual-based sensitivity analysis of a computed bound.
//
// The bound engines return the LP duals w_i of the statistics constraints
// — the coefficients of the witness inequality (8). Standard LP
// sensitivity reads off:
//   * w_i > 0  <=>  the statistic is *binding*: improving it by δ bits
//     (collecting a sharper norm) lowers the bound by ~w_i·δ bits;
//   * slack > 0 <=> the statistic is redundant at the optimum: small
//     improvements cannot change the bound at all.
// This turns the engine into an advisor for WHICH statistics a system
// should maintain — the practical question behind the paper's observation
// that the JOB queries used norms from all over {1..30, ∞}.
#ifndef LPB_BOUNDS_SENSITIVITY_H_
#define LPB_BOUNDS_SENSITIVITY_H_

#include <string>
#include <vector>

#include "bounds/bound_engine.h"
#include "stats/statistic.h"

namespace lpb {

struct SensitivityEntry {
  int stat_index = 0;
  double weight = 0.0;  // dual w_i: d(bound)/d(log_b_i)
  double slack = 0.0;   // log_b_i - h*(lhs_i): 0 when binding
  bool binding = false;
};

// Per-statistic sensitivities for a solved bound. `result.h_opt` and
// `result.weights` must come from an Evaluate with `want_h_opt` on exactly
// these statistics (e.g. ComputeBound).
std::vector<SensitivityEntry> AnalyzeSensitivity(
    const BoundResult& result, const std::vector<ConcreteStatistic>& stats,
    double eps = 1e-6);

// Human-readable report, most influential statistics first.
std::string FormatSensitivity(const std::vector<SensitivityEntry>& entries,
                              const std::vector<ConcreteStatistic>& stats);

}  // namespace lpb

#endif  // LPB_BOUNDS_SENSITIVITY_H_
