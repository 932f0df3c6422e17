#include "dense_oracle.h"

#include <cmath>
#include <limits>

#include "entropy/shannon.h"
#include "lp/lp_backend.h"

namespace lpb {
namespace {

// Long double: lexicographic pivoting occasionally selects tiny pivot
// elements, whose reciprocals amplify rounding error.
using Scalar = long double;

constexpr double kEps = 1e-9;
constexpr Scalar kLexEps = 1e-12L;
constexpr int kNoCol = -1;

class DenseTableau {
 public:
  DenseTableau(const LpProblem& problem, const std::vector<double>& rhs)
      : problem_(problem) {
    const int n = problem.num_vars();
    rows_ = problem.num_constraints();
    const NormalizedRows normalized = NormalizeRows(problem, rhs);
    row_sign_ = normalized.row_sign;
    first_art_ = n + normalized.num_slack;
    cols_ = first_art_ + normalized.num_art;
    t_.assign(rows_, std::vector<Scalar>(cols_ + 1, 0.0));
    basis_.assign(rows_, kNoCol);
    dual_col_.assign(rows_, kNoCol);
    int next_slack = n;
    int next_art = first_art_;
    for (int i = 0; i < rows_; ++i) {
      const LpConstraint& c = problem.constraint(i);
      std::vector<Scalar>& row = t_[i];
      for (const LpTerm& term : c.terms) {
        row[term.var] += row_sign_[i] * term.coef;
      }
      row[cols_] = row_sign_[i] * (rhs.empty() ? c.rhs : rhs[i]);
      // Column dual_col_[i] starts as +e_i, so the reduced cost under it
      // yields the dual of constraint i at the end.
      switch (normalized.sense[i]) {
        case LpSense::kLe:
          row[next_slack] = 1.0;
          basis_[i] = dual_col_[i] = next_slack++;
          break;
        case LpSense::kGe:
          row[next_slack++] = -1.0;
          row[next_art] = 1.0;
          basis_[i] = dual_col_[i] = next_art++;
          break;
        case LpSense::kEq:
          row[next_art] = 1.0;
          basis_[i] = dual_col_[i] = next_art++;
          break;
      }
    }
    cost_.assign(cols_, 0.0);
    for (int j = 0; j < n; ++j) cost_[j] = problem.objective_coef(j);
    max_iterations_ = 50 * (rows_ + cols_) + 1000;
  }

  LpResult Solve() {
    // Phase 1: maximize -sum(artificials), feasible iff the optimum is 0.
    if (first_art_ < cols_) {
      std::vector<double> phase1(cols_, 0.0);
      for (int j = first_art_; j < cols_; ++j) phase1[j] = -1.0;
      if (!RunPhase(phase1, /*phase_two=*/false)) {
        return Failure(LpStatus::kIterationLimit);
      }
      Scalar infeasibility = 0.0;
      for (int i = 0; i < rows_; ++i) {
        if (basis_[i] >= first_art_) infeasibility += t_[i][cols_];
      }
      if (infeasibility > 1e-7) return Failure(LpStatus::kInfeasible);
      EvictArtificials();
    }
    // Phase 2: the real objective; artificials may not re-enter.
    if (!RunPhase(cost_, /*phase_two=*/true)) {
      return Failure(LpStatus::kIterationLimit);
    }
    if (unbounded_) return Failure(LpStatus::kUnbounded);
    return Optimal();
  }

 private:
  void ComputeReducedCosts(const std::vector<double>& cost) {
    reduced_.assign(cols_, 0.0);
    for (int i = 0; i < rows_; ++i) {
      const Scalar cb = cost[basis_[i]];
      if (cb == 0.0) continue;
      for (int j = 0; j < cols_; ++j) reduced_[j] -= cb * t_[i][j];
    }
    for (int j = 0; j < cols_; ++j) reduced_[j] += cost[j];
  }

  void Pivot(int row, int col) {
    std::vector<Scalar>& prow = t_[row];
    const Scalar inv = 1.0L / prow[col];
    for (Scalar& v : prow) v *= inv;
    prow[col] = 1.0;
    for (int i = 0; i < rows_; ++i) {
      if (i == row) continue;
      const Scalar f = t_[i][col];
      if (f == 0.0) continue;
      for (int j = 0; j <= cols_; ++j) t_[i][j] -= f * prow[j];
      t_[i][col] = 0.0;
    }
    basis_[row] = col;
    ++iterations_;
  }

  // One primal phase; false on the iteration limit. Sets unbounded_ when
  // an entering column has no ratio-test row.
  bool RunPhase(const std::vector<double>& cost, bool phase_two) {
    std::vector<bool> frozen(cols_, false);
    while (true) {
      if (iterations_ >= max_iterations_) return false;
      ComputeReducedCosts(cost);
      int enter = kNoCol;
      Scalar best = kEps;
      const int limit = phase_two ? first_art_ : cols_;
      for (int j = 0; j < limit; ++j) {
        if (!frozen[j] && reduced_[j] > best) {
          enter = j;
          best = reduced_[j];
        }
      }
      if (enter == kNoCol) return true;

      // Ratio test, ties broken lexicographically on the slack/artificial
      // block (the identity at the start, so rows begin lexicographically
      // positive and the classic termination argument applies).
      int leave = -1;
      Scalar best_ratio = std::numeric_limits<Scalar>::infinity();
      for (int i = 0; i < rows_; ++i) {
        const Scalar a = t_[i][enter];
        if (a <= kEps) continue;
        const Scalar ratio = t_[i][cols_] / a;
        if (leave == -1 || ratio < best_ratio - kLexEps) {
          best_ratio = ratio;
          leave = i;
          continue;
        }
        if (ratio > best_ratio + kLexEps) continue;
        const Scalar a_leave = t_[leave][enter];
        for (int j = problem_.num_vars(); j < cols_; ++j) {
          const Scalar d = t_[i][j] / a - t_[leave][j] / a_leave;
          if (d < -kLexEps) {
            leave = i;
            best_ratio = ratio;
            break;
          }
          if (d > kLexEps) break;
        }
      }
      if (leave == -1) {
        // A barely positive reduced cost over a numerically dead column is
        // noise, not a certificate of unboundedness.
        if (reduced_[enter] <= 1e-6) {
          frozen[enter] = true;
          continue;
        }
        unbounded_ = true;
        return true;
      }
      Pivot(leave, enter);
    }
  }

  // After a feasible phase 1, pivots basic artificials (at ~0) out where a
  // non-artificial column can replace them; otherwise the row is redundant
  // and the artificial stays basic at zero, which is harmless.
  void EvictArtificials() {
    for (int i = 0; i < rows_; ++i) {
      if (basis_[i] < first_art_) continue;
      for (int j = 0; j < first_art_; ++j) {
        if (std::abs(static_cast<double>(t_[i][j])) > kEps) {
          Pivot(i, j);
          break;
        }
      }
    }
  }

  LpResult Optimal() {
    LpResult result;
    result.status = LpStatus::kOptimal;
    result.iterations = iterations_;
    result.x.assign(problem_.num_vars(), 0.0);
    for (int i = 0; i < rows_; ++i) {
      if (basis_[i] < problem_.num_vars()) {
        result.x[basis_[i]] = static_cast<double>(t_[i][cols_]);
      }
    }
    for (int j = 0; j < problem_.num_vars(); ++j) {
      result.objective += cost_[j] * result.x[j];
    }
    // The reduced cost under the +e_i column of constraint i is -y_i.
    ComputeReducedCosts(cost_);
    result.duals.assign(rows_, 0.0);
    for (int i = 0; i < rows_; ++i) {
      result.duals[i] =
          static_cast<double>(-reduced_[dual_col_[i]]) * row_sign_[i];
    }
    return result;
  }

  LpResult Failure(LpStatus status) const {
    LpResult result;
    result.status = status;
    result.iterations = iterations_;
    result.x.assign(problem_.num_vars(), 0.0);
    result.duals.assign(rows_, 0.0);
    return result;
  }

  const LpProblem& problem_;
  int rows_ = 0;
  int cols_ = 0;       // structural + slack/surplus + artificial
  int first_art_ = 0;  // first artificial column
  std::vector<std::vector<Scalar>> t_;  // rows_ x (cols_ + 1), RHS last
  std::vector<int> basis_;
  std::vector<int> dual_col_;
  std::vector<double> row_sign_;
  std::vector<double> cost_;  // phase-2 objective, padded to cols_
  std::vector<Scalar> reduced_;
  int iterations_ = 0;
  int max_iterations_ = 0;
  bool unbounded_ = false;
};

}  // namespace

LpResult DenseOracleSolve(const LpProblem& problem,
                          const std::vector<double>& rhs) {
  return DenseTableau(problem, rhs).Solve();
}

LpProblem FullLatticeLp(int n, const std::vector<ConcreteStatistic>& stats) {
  // h(∅) = 0 has no column.
  auto terms = [](const LinearForm& form) {
    std::vector<LpTerm> out;
    for (const EntropyTerm& t : form) {
      if (t.set != 0 && t.coef != 0.0) {
        out.push_back({static_cast<int>(t.set) - 1, t.coef});
      }
    }
    return out;
  };
  LpProblem lp((1 << n) - 1);
  lp.SetObjective(static_cast<int>(FullSet(n)) - 1, 1.0);
  for (const ConcreteStatistic& stat : stats) {
    lp.AddConstraint(terms(stat.Lhs()), LpSense::kLe, stat.log_b);
  }
  for (const LinearForm& ineq : ElementalInequalities(n)) {
    lp.AddConstraint(terms(ineq), LpSense::kGe, 0.0);
  }
  return lp;
}

}  // namespace lpb
