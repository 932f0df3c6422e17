#include "bounds/bound_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <optional>
#include <set>
#include <utility>

#include "bounds/normal_engine.h"
#include "bounds/shannon_cuts.h"
#include "entropy/shannon.h"
#include "lp/lp_problem.h"
#include "lp/tableau.h"
#include "relation/degree_sequence.h"

namespace lpb {

bool BoundStructure::AllShapesSimple() const {
  for (const StatisticShape& shape : shapes) {
    if (!shape.sigma.IsSimple()) return false;
  }
  return true;
}

BoundStructure StructureOf(int n, const std::vector<ConcreteStatistic>& stats) {
  BoundStructure structure;
  structure.n = n;
  structure.shapes.reserve(stats.size());
  for (const ConcreteStatistic& s : stats) {
    structure.shapes.push_back({s.sigma, s.p});
  }
  return structure;
}

std::vector<double> ValuesOf(const std::vector<ConcreteStatistic>& stats) {
  std::vector<double> values;
  values.reserve(stats.size());
  for (const ConcreteStatistic& s : stats) values.push_back(s.log_b);
  return values;
}

std::string StructureKey(const BoundStructure& structure) {
  std::string key;
  key.reserve(1 + structure.shapes.size() * 16);
  key.push_back(static_cast<char>(structure.n));
  for (const StatisticShape& shape : structure.shapes) {
    char buf[16];
    std::memcpy(buf, &shape.sigma.u, 4);
    std::memcpy(buf + 4, &shape.sigma.v, 4);
    std::memcpy(buf + 8, &shape.p, 8);
    key.append(buf, sizeof(buf));
  }
  return key;
}

namespace {

// The result for a value column no engine may see, or nullopt for a
// well-formed one. A NaN or +inf value, or a column of the wrong size,
// cannot be priced: the default failed BoundResult (+inf). A -inf value is
// the log2 of an empty degree sequence, so its relation and the output are
// empty; its row h(..) <= -inf makes the LP infeasible, and the column
// reads as the kInfeasible (bound 0.0) a cold solve returns. Rejecting the
// column here keeps it out of the cached basis: a NaN priced against the
// witness, or pivoted on by a warm re-solve, would poison every later
// evaluation of this CompiledBound.
std::optional<BoundResult> RejectColumn(const std::vector<double>& log_b,
                                        size_t num_shapes) {
  if (log_b.size() != num_shapes) return BoundResult();
  bool empty = false;
  for (double v : log_b) {
    if (std::isnan(v) || v == kInfNorm) return BoundResult();
    if (v == -kInfNorm) empty = true;
  }
  if (!empty) return std::nullopt;
  BoundResult result;
  result.status = LpStatus::kInfeasible;
  result.log2_bound = 0.0;
  return result;
}

}  // namespace

BoundResult CompiledBound::Evaluate(const std::vector<double>& log_b,
                                    bool want_h_opt) {
  if (std::optional<BoundResult> rejected =
          RejectColumn(log_b, structure_.shapes.size())) {
    return *rejected;
  }
  BoundResult result = EvaluateImpl(log_b, want_h_opt);
  Record(result);
  return result;
}

std::vector<BoundResult> CompiledBound::EvaluateBatch(
    std::span<const std::vector<double>> log_b_batch, bool want_h_opt) {
  const size_t num_shapes = structure_.shapes.size();
  std::vector<BoundResult> results;
  if (std::none_of(log_b_batch.begin(), log_b_batch.end(),
                   [&](const std::vector<double>& log_b) {
                     return RejectColumn(log_b, num_shapes).has_value();
                   })) {
    results = EvaluateBatchImpl(log_b_batch, want_h_opt);
    for (const BoundResult& result : results) Record(result);
    return results;
  }
  // Rejected columns are answered here; the rest ride the engine's batch
  // path in order, exactly as if the rejected ones were absent.
  results.resize(log_b_batch.size());
  std::vector<size_t> valid;
  std::vector<std::vector<double>> valid_batch;
  for (size_t c = 0; c < log_b_batch.size(); ++c) {
    if (std::optional<BoundResult> rejected =
            RejectColumn(log_b_batch[c], num_shapes)) {
      results[c] = std::move(*rejected);
    } else {
      valid.push_back(c);
      valid_batch.push_back(log_b_batch[c]);
    }
  }
  std::vector<BoundResult> evaluated =
      EvaluateBatchImpl(valid_batch, want_h_opt);
  for (size_t k = 0; k < valid.size(); ++k) {
    Record(evaluated[k]);
    results[valid[k]] = std::move(evaluated[k]);
  }
  return results;
}

std::vector<BoundResult> CompiledBound::EvaluateBatchImpl(
    std::span<const std::vector<double>> log_b_batch, bool want_h_opt) {
  std::vector<BoundResult> results;
  results.reserve(log_b_batch.size());
  for (const std::vector<double>& log_b : log_b_batch) {
    results.push_back(EvaluateImpl(log_b, want_h_opt));
  }
  return results;
}

void CompiledBound::Record(const BoundResult& result) {
  ++counters_.evaluations;
  switch (result.eval_path) {
    case LpEvalPath::kWitness:
      ++counters_.witness_hits;
      break;
    case LpEvalPath::kWarm:
      ++counters_.warm_resolves;
      break;
    case LpEvalPath::kCold:
      ++counters_.cold_solves;
      break;
  }
}

BoundResult ResultFromLp(const LpResult& lp, size_t num_weights) {
  BoundResult result;
  result.status = lp.status;
  result.lp_iterations = lp.iterations;
  result.eval_path = lp.path;
  result.lp_stats = lp.stats;
  switch (lp.status) {
    case LpStatus::kOptimal:
      result.log2_bound = lp.objective;
      result.weights.assign(lp.duals.begin(),
                            lp.duals.begin() + num_weights);
      break;
    case LpStatus::kInfeasible:
      // No database satisfies the statistics (e.g. a cardinality below 1),
      // so the output is empty and log2 1 = 0 is still a sound bound.
      result.log2_bound = 0.0;
      break;
    case LpStatus::kUnbounded:       // the statistics do not bound the query
    case LpStatus::kIterationLimit:  // the solver gave up: no bound known
      result.log2_bound = kInfNorm;
      break;
  }
  return result;
}

namespace {

bool AllNonNegative(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return v >= 0.0; });
}

// An unbounded verdict is structural: the certifying ray lives in the
// recession cone {h feasible-direction : stats-lhs(h) <= 0}, which does not
// depend on the RHS. Any later value vector with log_b >= 0 keeps the
// origin feasible, so the LP stays unbounded — no solve needed.
BoundResult StructurallyUnboundedResult() {
  BoundResult out;
  out.status = LpStatus::kUnbounded;
  out.log2_bound = kInfNorm;
  out.eval_path = LpEvalPath::kWitness;
  return out;
}

// Cutting mode boxes h(X) so the relaxation stays bounded; a
// Shannon-feasible optimum pinned at the box is genuinely unbounded.
void UnboundedIfPinnedAtBox(BoundResult& result, double box) {
  if (result.ok() && result.log2_bound >= box * (1.0 - 1e-9)) {
    result.status = LpStatus::kUnbounded;
    result.log2_bound = kInfNorm;
  }
}

// Shared batch driver for the single-LP engines (normal, full-lattice Γn):
// gathers maximal runs of columns not served by the structural-unbounded
// shortcut, pushes each run through the tableau's multi-RHS resolve, and
// finalizes columns in order.
//
// A mid-run unbounded verdict flips the shortcut flag for the columns
// after it, and their block resolves have already run — but those
// resolves are scalar-identical by construction: an unbounded solve
// caches no basis, and with the recession ray fixed every later in-run
// resolve is a history-independent cold solve that can only end
// unbounded or infeasible (never optimal, so no basis ever reappears).
// Columns the scalar sequence would have *shortcut* (nonnegative values)
// therefore just get their result replaced with the shortcut result —
// their speculative solve touched no state the scalar sequence could
// observe — and every other column keeps its block result unchanged.
// Allocation discipline: the run's RHS buffers and the LpResult vector
// persist across runs (fill_rhs writes into a reused std::vector, and the
// tableau's out-param batch overload reuses each LpResult's x/duals
// capacity), so the steady-state per-column cost is the LP work itself,
// not allocator traffic.
// Caller-owned scratch for BatchThroughTableau: the run's RHS buffers and
// the LpResult vector survive across batches (each engine keeps one as a
// member), so their steady-state cost is a fill, not an allocation — and
// fill_rhs callbacks may exploit the persistence (a buffer already sized
// for this LP keeps its zero tail, see the Γn engine).
struct BatchScratch {
  std::vector<std::vector<double>> run;
  std::vector<LpResult> lps;
};

template <typename FillRhs, typename Finalize>
std::vector<BoundResult> BatchThroughTableau(
    std::span<const std::vector<double>> batch, SimplexTableau& tableau,
    bool& structurally_unbounded, BatchScratch& scratch,
    const FillRhs& fill_rhs, const Finalize& finalize) {
  std::vector<BoundResult> out;  // filled in column order
  out.reserve(batch.size());
  std::vector<std::vector<double>>& run = scratch.run;
  std::vector<LpResult>& lps = scratch.lps;
  size_t i = 0;
  while (i < batch.size()) {
    if (structurally_unbounded && AllNonNegative(batch[i])) {
      out.push_back(StructurallyUnboundedResult());
      ++i;
      continue;
    }
    size_t run_size = 0;
    size_t end = i;
    while (end < batch.size() &&
           !(structurally_unbounded && AllNonNegative(batch[end]))) {
      if (run.size() <= run_size) run.emplace_back();
      fill_rhs(batch[end], run[run_size]);
      ++run_size;
      ++end;
    }
    tableau.ResolveWithRhsBatch(
        std::span<const std::vector<double>>(run.data(), run_size), lps);
    bool flipped_mid_run = false;
    for (size_t k = 0; k < lps.size(); ++k) {
      if (flipped_mid_run && AllNonNegative(batch[i + k])) {
        out.push_back(StructurallyUnboundedResult());
        continue;
      }
      out.push_back(finalize(lps[k]));
      if (out.back().unbounded() && !structurally_unbounded) {
        structurally_unbounded = true;
        flipped_mid_run = true;
      }
    }
    i = end;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Γn engine: full elemental lattice for small n, cutting-plane beyond. The
// compiled cut set persists across evaluations — cuts separating one value
// vector usually separate its neighbors too, so later Evaluates converge
// in zero or few extra rounds.
//
// Cut pipeline: each evaluation resolves against the compiled pool
// (witness / dual-simplex warm start), then alternates separation and
// growth. A growth round appends the violated cuts through the tableau's
// incremental row append (SimplexTableau::AddConstraintsWarm) — new rows
// enter with their slacks basic on top of the previous round's optimal
// basis and dual simplex repairs only the violated rows — falling back to
// a cold recompile + two-phase solve when the tableau declines or warm
// starts are off (SimplexOptions::cut_warm_start = kOff).
// Warm and cold rounds converge to the same bound: both stop only when no
// compiled-pool-missing cut separates the optimum, and each round's LP is
// the same finite LP family member. Batches share the pool: converged
// columns ride the multi-RHS block resolve, and only columns that still
// separate new cuts pay scalar top-up rounds (see EvaluateBatchCutting).

class CompiledGammaBound : public CompiledBound {
 public:
  CompiledGammaBound(BoundStructure structure, const EngineOptions& options)
      : CompiledBound(std::move(structure)),
        options_(options),
        num_stats_(static_cast<int>(structure_.shapes.size())),
        full_mode_(structure_.n <= options_.full_lattice_max_n),
        lp_((1 << structure_.n) - 1) {
    const int n = structure_.n;
    assert(n >= 1 && n <= kMaxVars);
    const VarSet full = FullSet(n);
    lp_.SetObjective(static_cast<int>(full) - 1, 1.0);
    // Statistics rows come first so duals[i] is the weight of shapes[i];
    // their RHS is a per-evaluation parameter.
    for (const StatisticShape& shape : structure_.shapes) {
      ConcreteStatistic stat;
      stat.sigma = shape.sigma;
      stat.p = shape.p;
      lp_.AddConstraint(FormToTerms(stat.Lhs()), LpSense::kLe, 0.0);
      ps_.push_back(shape.p);
    }
    if (full_mode_) {
      for (const LinearForm& ineq : ElementalInequalities(n)) {
        lp_.AddConstraint(FormToTerms(ineq), LpSense::kGe, 0.0);
      }
    } else {
      box_row_ = lp_.AddConstraint({{static_cast<int>(full) - 1, 1.0}},
                                   LpSense::kLe, 0.0);
      for (const ShannonCut& cut : SeedShannonCuts(n)) AddCut(cut);
      // Flat any-violation pre-check for the converged steady state: most
      // evaluations end with "no new cut", and the branchless table scan
      // answers that without the subset-enumerating exact scan.
      scan_table_ = BuildShannonScanTable(n);
    }
    // The tableau owns the factorized basis that witness re-pricing and
    // warm dual-simplex re-solves run against: the LU factorization plus
    // Forrest–Tomlin updates of lp/lu_basis.h, so a witness evaluation is
    // one FTRAN (BTRAN only on basis changes).
    tableau_.emplace(lp_, options_.simplex);
  }

 protected:
  BoundResult EvaluateImpl(const std::vector<double>& log_b,
                           bool want_h_opt) override {
    const int n = structure_.n;
    if (structurally_unbounded_ && AllNonNegative(log_b)) {
      return StructurallyUnboundedResult();
    }

    std::vector<double> rhs(lp_.num_constraints(), 0.0);
    std::copy(log_b.begin(), log_b.end(), rhs.begin());
    double box = 0.0;
    if (!full_mode_) {
      box = GammaBoxBound(n, ps_, log_b);
      rhs[box_row_] = box;
    }

    LpResult lp_result = tableau_->ResolveWithRhs(rhs);
    // Every LP call of this evaluation counts toward the result's pivot
    // statistics — cut-growth rounds included, unlike lp_iterations.
    LpSolveStats stats_sum = lp_result.stats;
    int rounds = 0;
    bool cold_grew = false;
    bool cut_converged = full_mode_;
    if (!full_mode_) {
      // Cut loop: the new optimum may violate elemental inequalities that
      // no earlier evaluation needed. Each growth round first tries the
      // warm row append — the new rows enter with their slacks basic on
      // top of the previous round's optimal basis, and dual simplex
      // repairs only the violated rows — and falls back to a cold
      // recompile + two-phase solve when the tableau declines (or when
      // warm starts are disabled via SimplexOptions::cut_warm_start).
      const bool warm = options_.simplex.cut_warm_start == CutWarmStart::kOn;
      while (rounds < options_.max_cut_rounds &&
             lp_result.status == LpStatus::kOptimal) {
        // Pre-check first: a clean table scan proves the exact scan would
        // return empty (present cuts are LP rows, satisfied at any
        // optimum to the solver's tighter eps), and the converged case is
        // the common one after the pool warms up.
        if (!AnyViolatedShannonCut(scan_table_, lp_result.x,
                                   options_.feasibility_eps, scan_scratch_)) {
          cut_converged = true;
          break;
        }
        std::vector<ShannonCut> cuts = FindViolatedShannonCuts(
            n, lp_result.x, present_, options_.cuts_per_round,
            options_.feasibility_eps);
        if (cuts.empty()) {
          cut_converged = true;
          break;
        }
        std::vector<LpConstraint> new_rows;
        new_rows.reserve(cuts.size());
        for (const ShannonCut& cut : cuts) {
          present_.insert(cut.Key());
          new_rows.push_back(
              {FormToTerms(cut.Form(n)), LpSense::kGe, 0.0});
          rhs.push_back(0.0);
        }
        // The engine's own problem grows on every path: a later cold
        // recompile must see the full cut set.
        for (const LpConstraint& c : new_rows) {
          lp_.AddConstraint(c.terms, c.sense, c.rhs);
        }
        if (warm && tableau_->AddConstraintsWarm(new_rows, rhs, lp_result)) {
          stats_sum.Add(lp_result.stats);
          ++stats_sum.warm_cut_rounds;
        } else {
          tableau_.emplace(lp_, options_.simplex);
          lp_result = tableau_->Solve(rhs);
          stats_sum.Add(lp_result.stats);
          cold_grew = true;
        }
        ++rounds;
      }
    }

    BoundResult result = Finish(lp_result, want_h_opt);
    result.cut_rounds = rounds;
    result.lp_stats = stats_sum;
    if (cold_grew) result.eval_path = LpEvalPath::kCold;
    if (!full_mode_) UnboundedIfPinnedAtBox(result, box);
    // Cache the verdict only when it is structural: a Shannon-converged
    // box pin (or, in full mode, a solver ray) certifies a recession ray
    // that outlives any RHS. A round-limit exit pinned at the box is an
    // approximation failure for *these* values, not a property of the
    // structure — later values must get a fresh chance to converge.
    if (result.unbounded() && cut_converged) structurally_unbounded_ = true;
    return result;
  }

  std::vector<BoundResult> EvaluateBatchImpl(
      std::span<const std::vector<double>> log_b_batch,
      bool want_h_opt) override {
    if (!full_mode_) {
      return EvaluateBatchCutting(log_b_batch, want_h_opt);
    }
    return BatchThroughTableau(
        log_b_batch, *tableau_, structurally_unbounded_, batch_scratch_,
        [this](const std::vector<double>& log_b, std::vector<double>& rhs) {
          // Only the first num_stats entries are ever nonzero; a persistent
          // buffer already sized for this LP keeps its zero tail, so the
          // per-column cost is the statistics copy, not an O(rows) clear.
          // (Full mode never grows lp_, so a matching size is conclusive.)
          if (rhs.size() != static_cast<size_t>(lp_.num_constraints())) {
            rhs.assign(lp_.num_constraints(), 0.0);
          }
          std::copy(log_b.begin(), log_b.end(), rhs.begin());
        },
        [&](const LpResult& lp) { return Finish(lp, want_h_opt); });
  }

  // Cutting-plane batch: a shared per-batch cut pool. The compiled cut set
  // usually already separates every column after the first few evaluations,
  // so whole runs of columns ride the multi-RHS block resolve; only a
  // column whose block optimum still separates new cuts pays scalar top-up
  // rounds (growing the pool), after which the remaining columns re-gather
  // under the grown matrix — preserving the scalar sequence's ordering
  // semantics (later columns are always priced against every cut an
  // earlier column added).
  std::vector<BoundResult> EvaluateBatchCutting(
      std::span<const std::vector<double>> log_b_batch, bool want_h_opt) {
    const int n = structure_.n;
    std::vector<BoundResult> out(log_b_batch.size());
    std::vector<std::vector<double>>& run = batch_scratch_.run;
    std::vector<LpResult>& lps = batch_scratch_.lps;
    size_t i = 0;
    while (i < log_b_batch.size()) {
      if (structurally_unbounded_ && AllNonNegative(log_b_batch[i])) {
        out[i++] = StructurallyUnboundedResult();
        continue;
      }
      // Gather the maximal run of columns the structural shortcut cannot
      // serve and resolve it as one block against the current cut pool.
      size_t run_size = 0;
      size_t end = i;
      while (end < log_b_batch.size() &&
             !(structurally_unbounded_ && AllNonNegative(log_b_batch[end]))) {
        if (run.size() <= run_size) run.emplace_back();
        FillCutRhs(log_b_batch[end], run[run_size]);
        ++run_size;
        ++end;
      }
      // The relaxed block resolve (lp/tableau.h): witness-valid columns
      // are served against one pinned basis — pivoting columns no longer
      // flush the B⁻¹ memo for everything after them — at the cost of
      // bitwise identity with the scalar sequence, which cutting mode
      // never promised (its parity contract is tolerance).
      tableau_->ResolveWithRhsBatchRelaxed(
          std::span<const std::vector<double>>(run.data(), run_size), lps);
      // Finalize columns in order. The first column whose block optimum
      // still separates cuts is re-evaluated scalar (warm top-up rounds
      // grow the pool); everything after it re-gathers, since its block
      // result was priced against the pre-growth matrix.
      size_t done = i;
      for (size_t k = 0; k < run_size; ++k) {
        const size_t col = i + k;
        const LpResult& lp = lps[k];
        if (lp.status == LpStatus::kOptimal &&
            AnyViolatedShannonCut(scan_table_, lp.x,
                                  options_.feasibility_eps, scan_scratch_) &&
            !FindViolatedShannonCuts(n, lp.x, present_,
                                     options_.cuts_per_round,
                                     options_.feasibility_eps)
                 .empty()) {
          out[col] = EvaluateImpl(log_b_batch[col], want_h_opt);
          done = col + 1;
          break;
        }
        // Cut-converged (or non-optimal, where the scalar path runs no cut
        // rounds either): the block result is the scalar result.
        BoundResult result = Finish(lp, want_h_opt);
        UnboundedIfPinnedAtBox(result, run[k][box_row_]);
        const bool flips = result.unbounded() &&
                           lp.status == LpStatus::kOptimal &&
                           !structurally_unbounded_;
        if (flips) structurally_unbounded_ = true;
        out[col] = result;
        done = col + 1;
        // A flip makes later columns shortcut-eligible; their block
        // results were priced speculatively, so re-gather them.
        if (flips) break;
      }
      i = done;
    }
    return out;
  }

 private:
  // h* is the LP's primal solution: one variable per nonempty subset.
  BoundResult Finish(const LpResult& lp, bool want_h_opt) const {
    BoundResult result = ResultFromLp(lp, num_stats_);
    if (result.ok() && want_h_opt) {
      result.h_opt = SetFunction(structure_.n);
      const VarSet full = FullSet(structure_.n);
      for (VarSet s = 1; s <= full; ++s) result.h_opt[s] = lp.x[s - 1];
    }
    return result;
  }

  void AddCut(const ShannonCut& cut) {
    present_.insert(cut.Key());
    lp_.AddConstraint(FormToTerms(cut.Form(structure_.n)), LpSense::kGe, 0.0);
  }

  // Cutting-mode RHS for one column: statistics values, the per-column box
  // bound, zeros on every cut row. The persistent buffer is re-sized only
  // when the cut pool grew since the last batch.
  void FillCutRhs(const std::vector<double>& log_b, std::vector<double>& rhs) {
    if (rhs.size() != static_cast<size_t>(lp_.num_constraints())) {
      rhs.assign(lp_.num_constraints(), 0.0);
    }
    std::copy(log_b.begin(), log_b.end(), rhs.begin());
    rhs[box_row_] = GammaBoxBound(structure_.n, ps_, log_b);
  }

  EngineOptions options_;
  int num_stats_;
  bool full_mode_;
  LpProblem lp_;
  std::optional<SimplexTableau> tableau_;
  std::vector<double> ps_;
  std::set<uint64_t> present_;
  ShannonScanTable scan_table_;
  std::vector<double> scan_scratch_;
  int box_row_ = -1;
  bool structurally_unbounded_ = false;
  BatchScratch batch_scratch_;
};

class GammaEngine : public BoundEngine {
 public:
  std::string_view name() const override { return "gamma"; }
  bool Supports(const BoundStructure& structure) const override {
    return structure.n >= 1 && structure.n <= kMaxVars;
  }
  std::unique_ptr<CompiledBound> Compile(
      const BoundStructure& structure,
      const EngineOptions& options) const override {
    return std::make_unique<CompiledGammaBound>(structure, options);
  }
};

// ---------------------------------------------------------------------------
// Nn engine: exact for simple shapes (Theorem 6.1) with a far smaller LP —
// only the statistics are rows, so witness re-pricing is O(stats²).

class CompiledNormalBound : public CompiledBound {
 public:
  CompiledNormalBound(BoundStructure structure, const EngineOptions& options)
      : CompiledBound(std::move(structure)),
        tableau_(BuildNormalBoundLp(structure_.n, PlaceholderStats()),
                 options.simplex) {}

 protected:
  BoundResult EvaluateImpl(const std::vector<double>& log_b,
                           bool want_h_opt) override {
    if (structurally_unbounded_ && AllNonNegative(log_b)) {
      return StructurallyUnboundedResult();
    }
    BoundResult result = Finish(tableau_.ResolveWithRhs(log_b), want_h_opt);
    if (result.unbounded()) structurally_unbounded_ = true;
    return result;
  }

  std::vector<BoundResult> EvaluateBatchImpl(
      std::span<const std::vector<double>> log_b_batch,
      bool want_h_opt) override {
    // The Nn LP's RHS is the value vector itself, so each run feeds the
    // tableau's multi-RHS resolve directly.
    return BatchThroughTableau(
        log_b_batch, tableau_, structurally_unbounded_, batch_scratch_,
        [](const std::vector<double>& log_b, std::vector<double>& rhs) {
          rhs.assign(log_b.begin(), log_b.end());
        },
        [&](const LpResult& lp) { return Finish(lp, want_h_opt); });
  }

 private:
  // h* = Σ_W α*_W h_W, with α* the LP's primal solution.
  BoundResult Finish(const LpResult& lp, bool want_h_opt) const {
    BoundResult result = ResultFromLp(lp, lp.duals.size());
    if (result.ok() && want_h_opt) {
      const int num_vars = static_cast<int>(FullSet(structure_.n));
      result.alpha.assign(num_vars + 1, 0.0);
      for (int w = 0; w < num_vars; ++w) result.alpha[w + 1] = lp.x[w];
      result.h_opt = SetFunction::NormalCombination(structure_.n,
                                                    result.alpha);
    }
    return result;
  }

  // Shape-only statistics (log_b = 0) for the matrix builder; the real
  // values arrive per evaluation as the RHS vector.
  std::vector<ConcreteStatistic> PlaceholderStats() const {
    std::vector<ConcreteStatistic> stats;
    stats.reserve(structure_.shapes.size());
    for (const StatisticShape& shape : structure_.shapes) {
      ConcreteStatistic stat;
      stat.sigma = shape.sigma;
      stat.p = shape.p;
      stats.push_back(stat);
    }
    return stats;
  }

  SimplexTableau tableau_;
  bool structurally_unbounded_ = false;
  BatchScratch batch_scratch_;
};

class NormalEngine : public BoundEngine {
 public:
  std::string_view name() const override { return "normal"; }
  bool Supports(const BoundStructure& structure) const override {
    return structure.n >= 1 && structure.n <= kMaxVars &&
           structure.AllShapesSimple();
  }
  std::unique_ptr<CompiledBound> Compile(
      const BoundStructure& structure,
      const EngineOptions& options) const override {
    assert(Supports(structure));
    return std::make_unique<CompiledNormalBound>(structure, options);
  }
};

// ---------------------------------------------------------------------------
// "auto": normal when sound (all shapes simple), gamma otherwise; the
// choice is made once, at compile time.

class AutoEngine : public BoundEngine {
 public:
  std::string_view name() const override { return "auto"; }
  bool Supports(const BoundStructure& structure) const override {
    return structure.n >= 1 && structure.n <= kMaxVars;
  }
  std::unique_ptr<CompiledBound> Compile(
      const BoundStructure& structure,
      const EngineOptions& options) const override;
};

// ---------------------------------------------------------------------------
// Shape-filtered engines (AGM, PANDA): compile the surviving sub-structure
// with the auto engine and remap witness weights back to the full shape
// list, so Σ w_i log_b_i still certifies against the caller's statistics.

class FilteredBound : public CompiledBound {
 public:
  FilteredBound(BoundStructure structure, std::vector<int> keep,
                std::unique_ptr<CompiledBound> inner)
      : CompiledBound(std::move(structure)),
        keep_(std::move(keep)),
        inner_(std::move(inner)) {}

 protected:
  BoundResult EvaluateImpl(const std::vector<double>& log_b,
                           bool want_h_opt) override {
    BoundResult result = inner_->Evaluate(Project(log_b), want_h_opt);
    RemapWeights(result);
    return result;
  }

  std::vector<BoundResult> EvaluateBatchImpl(
      std::span<const std::vector<double>> log_b_batch,
      bool want_h_opt) override {
    std::vector<std::vector<double>> sub_batch;
    sub_batch.reserve(log_b_batch.size());
    for (const std::vector<double>& log_b : log_b_batch) {
      sub_batch.push_back(Project(log_b));
    }
    std::vector<BoundResult> results =
        inner_->EvaluateBatch(sub_batch, want_h_opt);
    for (BoundResult& result : results) RemapWeights(result);
    return results;
  }

 private:
  std::vector<double> Project(const std::vector<double>& log_b) const {
    std::vector<double> sub(keep_.size());
    for (size_t k = 0; k < keep_.size(); ++k) sub[k] = log_b[keep_[k]];
    return sub;
  }

  // Scatter the sub-structure witness back onto the full shape list, so
  // Σ w_i log_b_i still certifies against the caller's statistics.
  void RemapWeights(BoundResult& result) const {
    std::vector<double> weights(structure_.shapes.size(), 0.0);
    for (size_t k = 0; k < keep_.size() && k < result.weights.size(); ++k) {
      weights[keep_[k]] = result.weights[k];
    }
    result.weights = std::move(weights);
  }

  std::vector<int> keep_;
  std::unique_ptr<CompiledBound> inner_;
};

class FilteredEngine : public BoundEngine {
 public:
  using Predicate = bool (*)(const StatisticShape&);
  FilteredEngine(std::string_view name, Predicate pred)
      : name_(name), pred_(pred) {}

  std::string_view name() const override { return name_; }
  bool Supports(const BoundStructure& structure) const override {
    return structure.n >= 1 && structure.n <= kMaxVars;
  }
  std::unique_ptr<CompiledBound> Compile(
      const BoundStructure& structure,
      const EngineOptions& options) const override;

 private:
  std::string_view name_;
  Predicate pred_;
};

const GammaEngine& Gamma() {
  static const GammaEngine engine;
  return engine;
}
const NormalEngine& Normal() {
  static const NormalEngine engine;
  return engine;
}
const AutoEngine& Auto() {
  static const AutoEngine engine;
  return engine;
}

std::unique_ptr<CompiledBound> AutoEngine::Compile(
    const BoundStructure& structure, const EngineOptions& options) const {
  if (Normal().Supports(structure)) return Normal().Compile(structure, options);
  return Gamma().Compile(structure, options);
}

std::unique_ptr<CompiledBound> FilteredEngine::Compile(
    const BoundStructure& structure, const EngineOptions& options) const {
  BoundStructure sub;
  sub.n = structure.n;
  std::vector<int> keep;
  for (size_t i = 0; i < structure.shapes.size(); ++i) {
    if (pred_(structure.shapes[i])) {
      keep.push_back(static_cast<int>(i));
      sub.shapes.push_back(structure.shapes[i]);
    }
  }
  return std::make_unique<FilteredBound>(structure, std::move(keep),
                                         Auto().Compile(sub, options));
}

}  // namespace

bool IsAgmShape(const StatisticShape& shape) {
  return shape.p == 1.0 && shape.sigma.u == 0;
}
bool IsPandaShape(const StatisticShape& shape) {
  return shape.p == 1.0 || shape.p >= kInfNorm / 2;
}

const BoundEngine* FindBoundEngine(std::string_view name) {
  static const FilteredEngine agm("agm", &IsAgmShape);
  static const FilteredEngine panda("panda", &IsPandaShape);
  static const BoundEngine* const engines[] = {&Gamma(), &Normal(), &Auto(),
                                               &agm, &panda};
  for (const BoundEngine* engine : engines) {
    if (engine->name() == name) return engine;
  }
  return nullptr;
}

std::vector<std::string_view> BoundEngineNames() {
  return {"gamma", "normal", "auto", "agm", "panda"};
}

BoundResult ComputeBound(std::string_view engine_name, int n,
                         const std::vector<ConcreteStatistic>& stats,
                         const EngineOptions& options) {
  const BoundEngine* engine = FindBoundEngine(engine_name);
  const BoundStructure structure = StructureOf(n, stats);
  if (engine == nullptr || !engine->Supports(structure)) return BoundResult();
  return engine->Compile(structure, options)->Evaluate(ValuesOf(stats));
}

}  // namespace lpb
