// Relation-sharded ℓp-norm statistics store.
//
// The advisor's original norm cache was one std::map behind one mutex —
// every concurrent estimator thread serialized on it for every statistic
// lookup, which capped scaling at a handful of cores. This store shards by
// *relation name*: all entries of one relation live in one shard (so
// Invalidate touches exactly one shard), while lookups for different
// relations — the common concurrent pattern, since a query's atoms name
// different relations — proceed under different mutexes.
//
// Each shard is an LRU map with a byte budget: entries are charged an
// estimate of their heap footprint, and inserting past the shard's share
// of the budget evicts least-recently-used entries. Eviction is purely a
// memory bound — an evicted entry is recomputed from the catalog on the
// next lookup, it never changes results.
//
// Staleness: each shard carries a *per-relation* generation counter
// bumped by InvalidateRelation. GetBatch returns the generation observed
// under the shard lock; PutBatch refuses to insert when that relation's
// generation has moved on, so a norm computation that raced an
// invalidation cannot re-insert stale values (the caller still uses the
// computed norms for its own call) — while invalidating one relation never
// discards concurrent computations for other relations that share its
// shard.
//
// The store is batch-only: GetBatch/PutBatch group their keys by shard and
// take each touched shard's mutex once for the whole batch, instead of
// once per key — the lock-traffic contract the advisor's statistics
// assembly (estimator/advisor.h, AssembleStatisticsBatch) relies on. A
// single lookup is a batch of one. Within a shard, keys are visited in
// batch order, so a batch's LRU refresh, generation refusal and hit/miss
// counts are those of the same keys looked up one batch of one at a time.
#ifndef LPB_ESTIMATOR_NORM_CACHE_H_
#define LPB_ESTIMATOR_NORM_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <vector>

namespace lpb {

struct NormCacheOptions {
  // Shard count; clamped to >= 1. Relations hash onto shards, so this is
  // the concurrency ceiling for lookups of distinct relations.
  int shards = 16;
  // Total byte budget across all shards (split evenly); 0 = unbounded.
  size_t byte_budget = 8u << 20;
};

class ShardedNormCache {
 public:
  // (relation, U columns, V columns) — one degree sequence's identity.
  using Key = std::tuple<std::string, std::vector<int>, std::vector<int>>;

  struct Lookup {
    bool found = false;
    std::vector<double> norms;  // valid when found
    // The relation generation observed under the lock; pass to PutBatch.
    uint64_t generation = 0;
  };

  explicit ShardedNormCache(NormCacheOptions options = {});

  // Looks every key up in its relation's shard, refreshing LRU recency on
  // a hit. Keys are grouped by shard and each touched shard's mutex is
  // taken exactly once for the whole batch (LockAcquisitions grows by the
  // number of *distinct* shards, not by keys.size()). Every lookup reports
  // its relation's generation, so a miss can be followed by a compute +
  // PutBatch. Returned lookups align with `keys`.
  std::vector<Lookup> GetBatch(std::span<const Key> keys);

  // Inserts (or refreshes) every item, one mutex visit per distinct shard,
  // unless the item's relation generation no longer equals its
  // `generation` — an invalidation of *that relation* ran while the caller
  // computed; the rest of the batch still lands. Each touched shard then
  // evicts LRU entries until it is back under its byte share.
  struct PutItem {
    Key key;
    std::vector<double> norms;
    uint64_t generation = 0;
  };
  void PutBatch(std::vector<PutItem> items);

  // Drops every entry of `relation` and bumps its generation so in-flight
  // computations cannot re-insert pre-invalidation values.
  void InvalidateRelation(const std::string& relation);

  size_t Size() const;        // entries across all shards
  size_t Bytes() const;       // charged bytes across all shards
  uint64_t Evictions() const; // cumulative LRU evictions
  uint64_t Hits() const;      // cumulative GetBatch hits
  uint64_t Misses() const;    // cumulative GetBatch misses
  // Data-path shard-mutex acquisitions (GetBatch/PutBatch/
  // InvalidateRelation). Monitoring reads (Size, Bytes, counters) are not
  // counted, so tests can assert "one acquisition per distinct shard per
  // batch" exactly.
  uint64_t LockAcquisitions() const;

 private:
  struct Entry {
    std::vector<double> norms;
    std::list<Key>::iterator lru_it;  // position in the shard's LRU list
    size_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::map<Key, Entry> map;
    std::list<Key> lru;  // front = least recently used
    size_t bytes = 0;
    // Generation per relation (absent = 0), bumped by InvalidateRelation;
    // bounded by the number of relations ever invalidated in this shard.
    std::map<std::string, uint64_t> relation_generation;
    uint64_t evictions = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t lock_acquisitions = 0;
  };

  // Per-key bodies of GetBatch/PutBatch. Caller holds shard.mu.
  Lookup GetLocked(Shard& shard, const Key& key);
  void PutLocked(Shard& shard, const Key& key, std::vector<double> norms,
                 uint64_t generation);

  // Calls visit(shard, i) for every i < n, item i living in the shard of
  // relation_of(i): each touched shard's mutex is taken once, shards in
  // index order and never nested, items of one shard in index order.
  template <typename RelationOf, typename Visit>
  void ForEachByShard(size_t n, const RelationOf& relation_of,
                      const Visit& visit);
  // Sum of field(shard) over all shards, each read under its mutex.
  template <typename Field>
  uint64_t SumOverShards(const Field& field) const;

  size_t ShardIndexOf(const std::string& relation) const;
  Shard& ShardOf(const std::string& relation);
  const Shard& ShardOf(const std::string& relation) const;

  NormCacheOptions options_;
  size_t per_shard_budget_ = 0;  // 0 = unbounded
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace lpb

#endif  // LPB_ESTIMATOR_NORM_CACHE_H_
