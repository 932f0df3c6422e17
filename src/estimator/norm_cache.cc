#include "estimator/norm_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace lpb {
namespace {

// Approximate heap footprint of one cached entry: the key is stored twice
// (map node + LRU list node), plus the norms vector and node overheads.
size_t EntryBytes(const ShardedNormCache::Key& key,
                  const std::vector<double>& norms) {
  const size_t key_bytes = std::get<0>(key).size() +
                           std::get<1>(key).size() * sizeof(int) +
                           std::get<2>(key).size() * sizeof(int) +
                           sizeof(ShardedNormCache::Key);
  return 2 * key_bytes + norms.size() * sizeof(double) + 128;
}

}  // namespace

ShardedNormCache::ShardedNormCache(NormCacheOptions options)
    : options_(options) {
  const int shards = std::max(1, options_.shards);
  shards_.reserve(shards);
  for (int s = 0; s < shards; ++s) shards_.push_back(std::make_unique<Shard>());
  if (options_.byte_budget > 0) {
    per_shard_budget_ = std::max<size_t>(1, options_.byte_budget / shards);
  }
}

size_t ShardedNormCache::ShardIndexOf(const std::string& relation) const {
  return std::hash<std::string>{}(relation) % shards_.size();
}

ShardedNormCache::Shard& ShardedNormCache::ShardOf(
    const std::string& relation) {
  return *shards_[ShardIndexOf(relation)];
}

const ShardedNormCache::Shard& ShardedNormCache::ShardOf(
    const std::string& relation) const {
  return *shards_[ShardIndexOf(relation)];
}

ShardedNormCache::Lookup ShardedNormCache::GetLocked(Shard& shard,
                                                     const Key& key) {
  Lookup out;
  auto gen_it = shard.relation_generation.find(std::get<0>(key));
  out.generation =
      gen_it == shard.relation_generation.end() ? 0 : gen_it->second;
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    return out;
  }
  // Refresh recency: splice the entry's node to the back of the LRU list.
  shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_it);
  ++shard.hits;
  out.found = true;
  out.norms = it->second.norms;
  return out;
}

void ShardedNormCache::PutLocked(Shard& shard, const Key& key,
                                 std::vector<double> norms,
                                 uint64_t generation) {
  auto gen_it = shard.relation_generation.find(std::get<0>(key));
  const uint64_t current =
      gen_it == shard.relation_generation.end() ? 0 : gen_it->second;
  if (current != generation) return;  // this relation was invalidated
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // A racing thread computed the same entry; identical values, so just
    // refresh recency.
    shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_it);
    return;
  }
  Entry entry;
  entry.bytes = EntryBytes(key, norms);
  entry.norms = std::move(norms);
  entry.lru_it = shard.lru.insert(shard.lru.end(), key);
  shard.bytes += entry.bytes;
  shard.map.emplace(key, std::move(entry));
  if (per_shard_budget_ == 0) return;
  while (shard.bytes > per_shard_budget_ && shard.map.size() > 1) {
    // Evict from the LRU front; never evict the entry just inserted (the
    // size() > 1 guard), so an oversized single entry still serves.
    auto victim = shard.map.find(shard.lru.front());
    shard.bytes -= victim->second.bytes;
    shard.lru.pop_front();
    shard.map.erase(victim);
    ++shard.evictions;
  }
}

template <typename RelationOf, typename Visit>
void ShardedNormCache::ForEachByShard(size_t n, const RelationOf& relation_of,
                                      const Visit& visit) {
  // Sorted (shard, item) pairs: each touched shard's items form one run,
  // in item order. Shards are locked one at a time in index order (never
  // nested), so racing batches cannot deadlock.
  std::vector<std::pair<size_t, size_t>> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = {ShardIndexOf(relation_of(i)), i};
  std::sort(order.begin(), order.end());
  for (size_t k = 0; k < n;) {
    const size_t s = order[k].first;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.lock_acquisitions;
    for (; k < n && order[k].first == s; ++k) visit(shard, order[k].second);
  }
}

std::vector<ShardedNormCache::Lookup> ShardedNormCache::GetBatch(
    std::span<const Key> keys) {
  std::vector<Lookup> out(keys.size());
  ForEachByShard(
      keys.size(),
      [&](size_t i) -> const std::string& { return std::get<0>(keys[i]); },
      [&](Shard& shard, size_t i) { out[i] = GetLocked(shard, keys[i]); });
  return out;
}

void ShardedNormCache::PutBatch(std::vector<PutItem> items) {
  ForEachByShard(
      items.size(), [&](size_t i) -> const std::string& {
        return std::get<0>(items[i].key);
      },
      [&](Shard& shard, size_t i) {
        PutLocked(shard, items[i].key, std::move(items[i].norms),
                  items[i].generation);
      });
}

void ShardedNormCache::InvalidateRelation(const std::string& relation) {
  Shard& shard = ShardOf(relation);
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.lock_acquisitions;
  // In-flight computations for this relation must not re-insert; other
  // relations in the shard are unaffected.
  ++shard.relation_generation[relation];
  for (auto it = shard.map.begin(); it != shard.map.end();) {
    if (std::get<0>(it->first) == relation) {
      shard.bytes -= it->second.bytes;
      shard.lru.erase(it->second.lru_it);
      it = shard.map.erase(it);
    } else {
      ++it;
    }
  }
}

template <typename Field>
uint64_t ShardedNormCache::SumOverShards(const Field& field) const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += field(*shard);
  }
  return total;
}

size_t ShardedNormCache::Size() const {
  return SumOverShards([](const Shard& s) { return s.map.size(); });
}
size_t ShardedNormCache::Bytes() const {
  return SumOverShards([](const Shard& s) { return s.bytes; });
}
uint64_t ShardedNormCache::Evictions() const {
  return SumOverShards([](const Shard& s) { return s.evictions; });
}
uint64_t ShardedNormCache::Hits() const {
  return SumOverShards([](const Shard& s) { return s.hits; });
}
uint64_t ShardedNormCache::Misses() const {
  return SumOverShards([](const Shard& s) { return s.misses; });
}
uint64_t ShardedNormCache::LockAcquisitions() const {
  return SumOverShards([](const Shard& s) { return s.lock_acquisitions; });
}

}  // namespace lpb
