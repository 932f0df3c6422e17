// The bound engines (Contributions 1 & 4 of the paper) and their
// compile-once / evaluate-many pipeline.
//
// The engines compute Log-L-Bound_Γn(Σ, b) = max { h(X) : h ∈ Γn,
// h |= (Σ, b) } (Eq. (36)), which by Theorem 5.2 equals Log-U-Bound_Γn —
// the best upper bound on log2 |Q(D)| derivable from Shannon inequalities
// and the given ℓp-norm statistics (Theorem 1.1). Its dual is the witness
// of inequality (8).
//
// The bound LP splits into a *structure* — the query's variable count plus
// the shapes (σ, p) of the available statistics, which fix the constraint
// matrix and objective — and *values* — the concrete ℓp-norm measurements
// log_b, which only enter the right-hand side. A BoundEngine compiles a
// structure once into a CompiledBound; each Evaluate(log_b) then reuses the
// cached optimal basis of the previous evaluation:
//
//   1. witness reuse — if the cached basis is still primal-feasible at the
//      new RHS (checked by re-pricing B⁻¹b', a rows × nnz(b') product), the
//      bound is the cached dual witness applied to the new values,
//      Σ_i w_i · log_b_i — a dot product, no simplex pivots at all;
//   2. warm re-solve — otherwise dual-simplex pivots from the still-dual-
//      feasible cached basis (lp/tableau.h);
//   3. cold solve — full two-phase simplex as a last resort.
//
// This is the LP analogue of a plan skeleton reused across invocations:
// optimizer probes against a repeated query template pay for statistics
// lookup plus a dot product, not an LP build-and-solve. A one-shot bound
// is a compile followed by one evaluate (ComputeBound).
//
// == Engine selection ==
//
//   * "normal" (Nn, bounds/normal_engine.h): exact and fast whenever every
//     statistic is simple (|U| <= 1, Theorem 6.1) — the common case of
//     per-join-column degree sequences; scales to n = 20. Unsound for
//     non-simple statistics, so it does not Support them.
//   * "gamma" (Γn): the general engine. One LP variable per nonempty
//     subset of query variables; the elemental Shannon inequalities are
//     fully materialized for n <= full_lattice_max_n and generated lazily
//     by a cutting-plane loop beyond that (see EngineOptions).
//   * "auto": normal when all shapes are simple, gamma otherwise — what
//     the advisor uses.
//   * "agm" / "panda": the classic special cases, as shape filters on top
//     of "auto" ({1}: cardinalities only; {1,∞}).
#ifndef LPB_BOUNDS_BOUND_ENGINE_H_
#define LPB_BOUNDS_BOUND_ENGINE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "entropy/set_function.h"
#include "lp/simplex.h"
#include "stats/statistic.h"

namespace lpb {

struct EngineOptions {
  // Materialize every elemental inequality when n <= this; otherwise run
  // the cutting-plane loop, which the revised simplex's warm cut appends
  // keep tractable to n = 10 (src/lp/README.md). Every workload in the
  // paper either fits the full lattice (n <= 8, arbitrary statistics) or
  // uses simple statistics, where the normal-polymatroid engine is exact
  // (Theorem 6.1) and fast to n = 20.
  int full_lattice_max_n = 8;
  int max_cut_rounds = 500;
  int cuts_per_round = 256;
  double feasibility_eps = 1e-7;
  // LP solver configuration (cut warm starts, tolerances, kernel dispatch;
  // see lp/simplex.h).
  SimplexOptions simplex;
};

struct BoundResult {
  // kOptimal when the LP solved. Like LpResult, the default is a failure:
  // a BoundResult nobody filled in must never read as a bound.
  LpStatus status = LpStatus::kIterationLimit;
  // log2 of the output-size bound. +infinity means "cannot bound": the
  // statistics do not bound the query (kUnbounded) or the solver gave up
  // (kIterationLimit). See ResultFromLp for the full status mapping.
  double log2_bound = std::numeric_limits<double>::infinity();
  // Dual weight w_i per input statistic: the coefficients of the witness
  // Σ-inequality (8) certifying the bound; Σ_i w_i log_b_i == log2_bound.
  std::vector<double> weights;
  // The optimal polymatroid h* (lower-bound witness of Theorem 5.2).
  SetFunction h_opt;
  // The normal engine's optimal step-function coefficients α*_W, indexed
  // by VarSet (entry 0 unused): h_opt == Σ_W alpha[W] · h_W, the input of
  // the worst-case database of Lemma 6.2 (bounds/worst_case.h). Filled
  // only by the normal engine, and only when h_opt is.
  std::vector<double> alpha;
  int cut_rounds = 0;
  int lp_iterations = 0;
  // How the underlying LP was evaluated: witness reuse, a warm re-solve
  // (warm cut appends included) or a cold solve.
  LpEvalPath eval_path = LpEvalPath::kCold;
  // Solver pivot/update/refactorization counters, summed over every LP
  // call this evaluation made (unlike lp_iterations, which reports the
  // final solve only, these cover all cut-growth rounds too). Aggregated
  // into AdvisorMetrics and the bench_throughput pivot gates.
  LpSolveStats lp_stats;

  bool ok() const { return status == LpStatus::kOptimal; }
  bool unbounded() const { return status == LpStatus::kUnbounded; }
};

// The one LpStatus → BoundResult mapping, shared by every engine and by
// ModularBound. Copies status, iterations, eval path and solver counters;
// on kOptimal the bound is the LP objective and the weights are the first
// `num_weights` duals (the statistics rows). h_opt, alpha and cut_rounds
// are left to the caller.
BoundResult ResultFromLp(const LpResult& lp, size_t num_weights);

// The shape of a statistic: everything except the concrete value. Guard
// atoms and labels are provenance, not LP inputs, so they are excluded —
// two queries whose statistics agree on (n, σ, p) share one CompiledBound
// even when the guarded relations differ.
struct StatisticShape {
  Conditional sigma;
  double p = 1.0;
};

// The structural half of a bound computation. The statistic shapes fully
// determine the LP (the query hypergraph enters only through them), so this
// is the cache key for compiled bounds.
struct BoundStructure {
  int n = 0;
  std::vector<StatisticShape> shapes;

  bool AllShapesSimple() const;
};

// Splits a concrete statistics vector into its shape and value halves;
// Evaluate's `log_b` argument is aligned with StructureOf(...).shapes.
BoundStructure StructureOf(int n, const std::vector<ConcreteStatistic>& stats);
std::vector<double> ValuesOf(const std::vector<ConcreteStatistic>& stats);

// Canonical byte encoding of a structure, usable as a hash/map cache key.
std::string StructureKey(const BoundStructure& structure);

// Shape predicates of the classic filtered bounds ("agm" / "panda").
bool IsAgmShape(const StatisticShape& shape);    // p = 1, U = ∅
bool IsPandaShape(const StatisticShape& shape);  // p ∈ {1, ∞}

// Cumulative evaluation-path counters of one CompiledBound.
struct EvalCounters {
  uint64_t evaluations = 0;
  uint64_t witness_hits = 0;   // cached basis still optimal: dot product only
  uint64_t warm_resolves = 0;  // dual-simplex pivots from the cached basis
  uint64_t cold_solves = 0;    // full two-phase solve (incl. cut growth)
};

// A bound compiled for one structure. Not thread-safe: Evaluate and
// EvaluateBatch mutate the cached basis (and, for the Γn engine, the cut
// set); callers sharing a CompiledBound across threads must serialize both
// (the advisor keeps a per-entry mutex, held across a whole batch).
class CompiledBound {
 public:
  virtual ~CompiledBound() = default;

  // Evaluates the bound at the given statistic values (aligned with
  // structure().shapes). `want_h_opt` materializes the optimal polymatroid
  // h* in the result — an O(2^n) copy that pure estimation loops skip.
  // Malformed values never reach the engine or its cached basis: a NaN or
  // +inf value, or a vector of the wrong size, yields the default failed
  // result (+inf); a -inf value (an empty degree sequence) yields
  // kInfeasible with bound 0.0, what a cold solve returns. Such a
  // rejected column is not counted in counters().
  BoundResult Evaluate(const std::vector<double>& log_b,
                       bool want_h_opt = true);

  // Evaluates the bound at every value vector of `log_b_batch`, in order.
  // For the fixed-matrix engines, results (including eval paths and
  // counters) are identical to calling Evaluate per vector — the cached
  // basis evolves across the batch exactly as it would across scalar
  // calls — but the batch amortizes the per-evaluation machinery: the
  // LP-backed engines push the whole block through
  // SimplexTableau::ResolveWithRhsBatch, so witness-valid columns share
  // one factorization and one cached-duals read (see lp/tableau.h). The
  // cutting-plane Γn engine shares its cut pool across the batch instead:
  // converged columns ride the block resolve and only columns that still
  // separate new cuts pay scalar top-up rounds, so bounds match the scalar
  // sequence to floating-point tolerance (both converge the same cut
  // family) rather than bitwise. `want_h_opt` defaults to *false* here,
  // unlike Evaluate: batched callers are optimizer probe loops that only
  // want the bound values. Malformed columns are rejected as in Evaluate,
  // and the remaining columns evaluate as if they were absent.
  std::vector<BoundResult> EvaluateBatch(
      std::span<const std::vector<double>> log_b_batch,
      bool want_h_opt = false);

  const BoundStructure& structure() const { return structure_; }
  const EvalCounters& counters() const { return counters_; }

 protected:
  explicit CompiledBound(BoundStructure structure)
      : structure_(std::move(structure)) {}
  virtual BoundResult EvaluateImpl(const std::vector<double>& log_b,
                                   bool want_h_opt) = 0;
  // Batch hook. The base implementation is the sequential scalar loop —
  // always correct, since the scalar sequence is the batch's contract; the
  // gamma (full-lattice mode) and normal engines override it to hand
  // maximal runs of columns to the tableau's multi-RHS resolve.
  virtual std::vector<BoundResult> EvaluateBatchImpl(
      std::span<const std::vector<double>> log_b_batch, bool want_h_opt);

  BoundStructure structure_;

 private:
  void Record(const BoundResult& result);

  EvalCounters counters_;
};

// A family of bounds: knows which structures it can soundly handle and how
// to compile them. Engines are stateless singletons owned by the registry.
class BoundEngine {
 public:
  virtual ~BoundEngine() = default;

  virtual std::string_view name() const = 0;
  // False when compiling this structure would yield an unsound bound
  // (e.g. the normal engine on non-simple shapes).
  virtual bool Supports(const BoundStructure& structure) const = 0;
  virtual std::unique_ptr<CompiledBound> Compile(
      const BoundStructure& structure,
      const EngineOptions& options = {}) const = 0;
};

// Registry. Engines: "gamma" (Γn), "normal" (Nn, simple shapes only),
// "auto" (normal when sound, else gamma — the advisor's default), and the
// shape-filtered classics "agm" ({1}) and "panda" ({1,∞}). Returns nullptr
// for unknown names.
const BoundEngine* FindBoundEngine(std::string_view name);
std::vector<std::string_view> BoundEngineNames();

// A one-shot bound: FindBoundEngine(engine)->Compile(StructureOf(n, stats),
// options)->Evaluate(ValuesOf(stats)), h_opt included. An unknown engine
// name, or a structure the engine does not Support, returns the default
// (failed) BoundResult.
BoundResult ComputeBound(std::string_view engine, int n,
                         const std::vector<ConcreteStatistic>& stats,
                         const EngineOptions& options = {});

}  // namespace lpb

#endif  // LPB_BOUNDS_BOUND_ENGINE_H_
