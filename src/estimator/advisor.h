// CardinalityAdvisor: the paper's "future work" packaged as an API —
// a pessimistic cardinality estimation service for query optimizers.
//
// Two caches make the hot path cheap enough for optimizer traffic:
//   * statistics store — ℓp norms per (relation, conditional), computed
//     lazily (a packed-key radix sort plus one linear scan per degree
//     sequence, relation/degree_sequence.h) and reused across queries.
//     The store is sharded by relation (estimator/norm_cache.h):
//     concurrent estimator threads looking up different relations take
//     different mutexes, and each shard is an LRU map under a byte budget,
//     so statistics memory stays bounded on wide catalogs (an evicted
//     entry is recomputed on the next lookup — eviction never changes
//     results).
//   * compiled-bound cache — the bound LP compiled once per *structure*
//     (variable count + statistic shapes; the query hypergraph enters the
//     LP only through those shapes) via bounds/bound_engine.h and
//     re-evaluated per statistics. For a repeated query template the
//     estimate is a statistics lookup plus a dual-witness dot product; the
//     LP is re-solved (warm, then cold) only when the cached basis stops
//     being optimal.
//
// One estimate path: every entry point assembles its queries' statistics
// through AssembleStatisticsBatch (a single query is a batch of one),
// groups them by structure in first-appearance order, and evaluates each
// group's value columns with one compiled-cache lookup and one
// CompiledBound::EvaluateBatch (the LP solver's multi-RHS resolve) under
// the bound's lock.
//
// Thread safety: all estimation entry points may be called concurrently.
// The compiled cache is read lock-free: the map lives behind an RCU-style
// atomic shared_ptr snapshot, so the hot (hit) path is one atomic load —
// no reader ever serializes against a writer burst. Compiling a new
// structure copies the map under a writer mutex and swaps the snapshot.
// Each compiled bound carries its own mutex because evaluation mutates the
// cached basis (a structure group holds it for its whole block).
// Invalidate may run concurrently with estimates.
#ifndef LPB_ESTIMATOR_ADVISOR_H_
#define LPB_ESTIMATOR_ADVISOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bounds/bound_engine.h"
#include "estimator/norm_cache.h"
#include "query/query.h"
#include "relation/catalog.h"
#include "relation/degree_sequence.h"
#include "stats/statistic.h"

namespace lpb {

struct AdvisorOptions {
  // Norms maintained for every per-column degree sequence.
  std::vector<double> norms = {1.0, 2.0, 3.0, 4.0, kInfNorm};
  // Engine options for the occasional non-simple statistics set.
  EngineOptions engine;
  // Bound engine used for compiled bounds (see FindBoundEngine); "auto"
  // picks the normal engine when sound, the Γn engine otherwise.
  std::string bound_engine = "auto";
  // Sharding and eviction of the statistics store (see norm_cache.h):
  // relations hash onto `shards` LRU maps, each holding an even share of
  // `byte_budget` (0 = unbounded).
  NormCacheOptions norm_cache;
};

// Cumulative counters. estimates and the witness/warm/cold split are
// deltas of each compiled bound's own CompiledBound::counters(), so
//   witness_hits + warm_resolves + cold_solves
//       == estimates - (estimates of 0-variable queries),
// and a value column CompiledBound rejects (wrong size, NaN or infinite
// values) counts nowhere. A call does one compiled-cache lookup per
// structure group: one per single-query call, fewer than its estimates for
// a batch whose queries share structures.
struct AdvisorMetrics {
  uint64_t estimates = 0;        // bounds served (a 0-variable query: 0.0)
  uint64_t batch_calls = 0;      // EstimateLog2Batch invocations (both forms)
  uint64_t batch_probes = 0;     // probes requested across those batches
  uint64_t compiled_hits = 0;    // structure found in the compiled cache
  uint64_t compiled_misses = 0;  // structure compiled on this call
  uint64_t witness_hits = 0;     // cached dual witness reused (dot product)
  uint64_t warm_resolves = 0;    // dual-simplex pivots from the cached basis
  uint64_t cold_solves = 0;      // full LP solve
  uint64_t norm_evictions = 0;   // statistics-store LRU evictions
  // Statistics-store traffic (estimator/norm_cache.h): hits and misses of
  // each call's distinct degree-sequence keys (a miss is a degree-sequence
  // recompute, relation/degree_sequence.h) and data-path shard-mutex
  // acquisitions, one per distinct shard a call touches.
  uint64_t norm_hits = 0;
  uint64_t norm_misses = 0;
  uint64_t norm_shard_locks = 0;
  // LP solver work behind the estimates, summed from BoundResult::lp_stats
  // (lp/simplex.h): pivots across all phases and basis refactorizations.
  uint64_t lp_pivots = 0;
  uint64_t lp_refactorizations = 0;
};

class CardinalityAdvisor {
 public:
  // The advisor keeps a reference to the catalog; it must outlive the
  // advisor. Statistics and compiled bounds are built lazily and cached.
  CardinalityAdvisor(const Catalog& catalog, AdvisorOptions options = {});

  // log2 upper bound on |Q(D)|; +infinity if the statistics cannot bound
  // the query (should not happen for full CQs with maintained norms).
  double EstimateLog2(const Query& query);

  // Upper bound in linear space (2^EstimateLog2, saturating).
  double Estimate(const Query& query);

  // Batched what-if probing: bounds `query` under each hypothetical
  // statistics-value vector in `log_b_batch` (rows aligned with
  // Explain(query).stats), evaluated as the query's one structure group. A
  // vector of any other size, or with a NaN or +infinity value, yields
  // +infinity.
  std::vector<double> EstimateLog2Batch(
      const Query& query, std::span<const std::vector<double>> log_b_batch);

  // Batched estimation over many queries (e.g. every candidate join
  // prefix of one search step). Returns log2 bounds aligned with
  // `queries`, bitwise those of one EstimateLog2 call per query.
  std::vector<double> EstimateLog2Batch(const std::vector<Query>& queries);
  // Linear-space variant of the above (2^log2 per entry, saturating).
  std::vector<double> EstimateBatch(const std::vector<Query>& queries);

  // Front half of the estimate path: the statistics of many queries
  // through ONE norm-store GetBatch over the batch's distinct
  // (relation, U, V) degree-sequence keys, one ComputeDegreeSequences call
  // per (relation, U ∪ V) among the misses, and one PutBatch. Per query:
  // per atom, its cardinality assertion, then each variable's conditional
  // at every maintained norm (none for 0 atoms).
  std::vector<std::vector<ConcreteStatistic>> AssembleStatisticsBatch(
      std::span<const Query> queries);

  // Full result (certificate weights, optimal polymatroid) plus the
  // statistics it was computed from and a metrics snapshot taken after the
  // call — bound.eval_path says whether this particular estimate reused
  // the cached witness, warm-resolved, or solved cold, and lp_backend
  // names the LP solver that served it ("revised", lp/tableau.h).
  struct Explanation {
    BoundResult bound;
    std::vector<ConcreteStatistic> stats;
    AdvisorMetrics metrics;
    std::string lp_backend;
  };
  Explanation Explain(const Query& query);

  // Number of distinct cached degree sequences (statistics maintenance
  // footprint) and their charged bytes.
  size_t CacheSize() const;
  size_t CacheBytes() const;
  // Number of distinct compiled bound structures.
  size_t CompiledCacheSize() const;

  // Snapshot of the cumulative evaluation counters.
  AdvisorMetrics metrics() const;

  // Drops cached statistics for one relation (call after updates). Only
  // that relation's shard is touched. Compiled bounds survive: they depend
  // only on structure, never on statistic values, so the next estimate
  // re-reads fresh norms and re-prices the cached basis against them.
  void Invalidate(const std::string& relation);

 private:
  // A compiled bound plus the mutex serializing Evaluate/EvaluateBatch on
  // it (both mutate the cached basis and, for Γn, the cut set). A batch
  // holds the mutex for its whole block — the locking contract callers
  // rely on is per-*evaluation-sequence*, not per-call.
  struct CompiledEntry {
    std::mutex mu;
    std::unique_ptr<CompiledBound> bound;
  };

  // Hash of a StructureKey (~1 KB of 16-byte shape records for a JOB
  // template).
  struct StructureKeyHash {
    size_t operator()(const std::string& key) const;
  };
  // The compiled-bound map is immutable once published: every write copies
  // the current map and swaps the snapshot pointer (RCU). Readers hold the
  // snapshot shared_ptr for the duration of their lookup, so a concurrent
  // swap never invalidates what they see.
  using CompiledMap =
      std::unordered_map<std::string, std::shared_ptr<CompiledEntry>,
                         StructureKeyHash>;

  // Finds the bound entry for structure key `key`, or compiles it from
  // StructureOf(n, stats), bumping the compiled hit/miss counters once.
  // Lock-free on the hit path (one atomic snapshot load).
  std::shared_ptr<CompiledEntry> LookupOrCompile(
      const std::string& key, int n,
      const std::vector<ConcreteStatistic>& stats);

  // Evaluates `columns` (value vectors aligned with `stats`, the
  // statistics of an n-variable query with structure key `key`): one
  // lookup, one EvaluateBatch under the entry lock. The one place a
  // 0-variable query is answered (log2 1 = 0).
  std::vector<BoundResult> EvaluateGroup(
      const std::string& key, int n,
      const std::vector<ConcreteStatistic>& stats,
      std::span<const std::vector<double>> columns, bool want_h_opt);

  // The estimate path of every query entry point: returns the statistics
  // (AssembleStatisticsBatch) and passes query i's result to
  // sink(i, BoundResult&&), each structure group through EvaluateGroup.
  template <typename Sink>
  std::vector<std::vector<ConcreteStatistic>> Run(
      std::span<const Query> queries, bool want_h_opt, const Sink& sink);

  const Catalog& catalog_;
  AdvisorOptions options_;

  ShardedNormCache norms_;

  // RCU snapshot of the compiled-bound map (never null) and the mutex
  // serializing writers (copy-insert-swap; readers never take it).
  // NOTE: libstdc++ implements atomic<shared_ptr> with an embedded
  // lock-bit protocol TSan cannot model (GCC bug 101761), so the TSan CI
  // lane runs with the .github/tsan.supp suppression for _Sp_atomic.
  std::atomic<std::shared_ptr<const CompiledMap>> compiled_;
  std::mutex compiled_writer_mu_;

  std::atomic<uint64_t> estimates_{0};
  std::atomic<uint64_t> batch_calls_{0};
  std::atomic<uint64_t> batch_probes_{0};
  std::atomic<uint64_t> compiled_hits_{0};
  std::atomic<uint64_t> compiled_misses_{0};
  std::atomic<uint64_t> witness_hits_{0};
  std::atomic<uint64_t> warm_resolves_{0};
  std::atomic<uint64_t> cold_solves_{0};
  std::atomic<uint64_t> lp_pivots_{0};
  std::atomic<uint64_t> lp_refactorizations_{0};
};

}  // namespace lpb

#endif  // LPB_ESTIMATOR_ADVISOR_H_
