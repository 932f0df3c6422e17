// Concurrency stress for the advisor's shared structures — the test the
// CI TSan lane runs. Eight threads hammer EstimateBatch / EstimateLog2 /
// Explain on overlapping query templates (so they contend on the same
// sharded norm-store entries and the same compiled-bound mutexes) while
// another thread churns Invalidate. Correctness bar: every estimate equals
// the single-threaded value to within an ulp-level tolerance (queries
// sharing a compiled structure may be served from whichever alternate
// optimal basis a racing thread cached — mathematically equal, bitwise
// not guaranteed; the catalog never changes, so invalidation must be
// invisible in results), and the cumulative counters reconcile.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "estimator/advisor.h"
#include "estimator/norm_cache.h"
#include "query/parser.h"
#include "relation/degree_sequence.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lpb {
namespace {

constexpr int kThreads = 8;
constexpr int kRoundsPerThread = 40;

// Alternate optimal bases agree on the objective only to rounding; see
// the file comment.
bool Mismatch(double got, double want) {
  if (std::isinf(want)) return !std::isinf(got);
  return std::abs(got - want) > 1e-8 * std::max(1.0, std::abs(want));
}

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.has_value());
  return *q;
}

Catalog StressDb(uint64_t seed = 17) {
  Catalog db;
  Rng rng(seed);
  ZipfSampler zipf(31, 0.6);
  for (const char* name : {"R", "S", "T", "U", "V", "W"}) {
    Relation r(name, {"a", "b"});
    for (int i = 0; i < 200; ++i) {
      r.AddRow({zipf.Sample(rng), zipf.Sample(rng)});
    }
    r.Deduplicate();
    db.Add(std::move(r));
  }
  return db;
}

// One key looked up or inserted as a batch of one.
ShardedNormCache::Lookup GetOne(ShardedNormCache& cache,
                                const ShardedNormCache::Key& key) {
  return cache.GetBatch(std::span<const ShardedNormCache::Key>(&key, 1))[0];
}

std::vector<Query> StressQueries() {
  std::vector<Query> queries;
  for (const char* text :
       {"R(X,Y), S(Y,Z)", "R(X,Y), S(Y,Z), T(Z,X)", "T(X,Y), U(Y,Z)",
        "U(X,Y), V(Y,Z), W(Z,X)", "R(X,Y), V(Y,Z)", "S(X,Y), W(Y,X)",
        "R(X,Y), S(Y,Z), T(Z,W), U(W,V2)"}) {
    queries.push_back(Parse(text));
  }
  return queries;
}

TEST(AdvisorConcurrent, EightThreadsBatchEstimatesStayExact) {
  Catalog db = StressDb();
  const std::vector<Query> queries = StressQueries();

  // Single-threaded ground truth from an independent advisor.
  CardinalityAdvisor reference(db);
  std::vector<double> expected;
  for (const Query& q : queries) expected.push_back(reference.EstimateLog2(q));

  // Small sharded store with an eviction-prone budget: contention AND
  // recomputation race with invalidation, the worst case for the store.
  AdvisorOptions options;
  options.norm_cache.shards = 4;
  options.norm_cache.byte_budget = 64 << 10;
  CardinalityAdvisor advisor(db, options);

  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> served{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int round = 0; round < kRoundsPerThread; ++round) {
        switch (rng.Uniform(4)) {
          case 0: {
            // Grouped multi-query batch across every template.
            const std::vector<double> got = advisor.EstimateLog2Batch(queries);
            for (size_t i = 0; i < queries.size(); ++i) {
              if (Mismatch(got[i], expected[i])) mismatches.fetch_add(1);
            }
            served.fetch_add(queries.size());
            break;
          }
          case 1: {
            // What-if batch: the real values repeated must reproduce the
            // single-query estimate on every column.
            const size_t i = rng.Uniform(queries.size());
            const auto stats = advisor.Explain(queries[i]).stats;
            served.fetch_add(1);  // the Explain
            const std::vector<std::vector<double>> batch(8, ValuesOf(stats));
            const std::vector<double> got =
                advisor.EstimateLog2Batch(queries[i], batch);
            for (double v : got) {
              if (Mismatch(v, expected[i])) mismatches.fetch_add(1);
            }
            served.fetch_add(batch.size());
            break;
          }
          case 2: {
            const size_t i = rng.Uniform(queries.size());
            if (Mismatch(advisor.EstimateLog2(queries[i]), expected[i])) {
              mismatches.fetch_add(1);
            }
            served.fetch_add(1);
            break;
          }
          case 3: {
            const size_t i = rng.Uniform(queries.size());
            const auto explanation = advisor.Explain(queries[i]);
            if (Mismatch(explanation.bound.log2_bound, expected[i])) {
              mismatches.fetch_add(1);
            }
            served.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  // Invalidation churn: the catalog is static, so dropping statistics must
  // never change results — only force recomputation.
  std::atomic<bool> stop{false};
  threads.emplace_back([&] {
    Rng rng(77);
    const char* names[] = {"R", "S", "T", "U", "V", "W"};
    while (!stop.load(std::memory_order_relaxed)) {
      advisor.Invalidate(names[rng.Uniform(6)]);
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kThreads; ++t) threads[t].join();
  stop.store(true);
  threads.back().join();

  EXPECT_EQ(mismatches.load(), 0u);
  const AdvisorMetrics m = advisor.metrics();
  EXPECT_EQ(m.estimates, served.load());
  EXPECT_EQ(m.witness_hits + m.warm_resolves + m.cold_solves, m.estimates);
  // All threads asked for the same handful of structures; the compiled
  // cache must not have ballooned past them.
  EXPECT_LE(advisor.CompiledCacheSize(), queries.size());
}

TEST(AdvisorConcurrent, CompiledMapSnapshotSurvivesWriterBursts) {
  // The compiled-bound map is read via an RCU-style atomic snapshot: a
  // burst of writers (threads compiling fresh structures) must never
  // serialize or corrupt concurrent readers of already-compiled entries.
  // Self-join chains of increasing length give every thread its own
  // stream of never-before-seen structures (distinct statistic shape
  // multisets), while reader threads hammer one pre-compiled template.
  Catalog db = StressDb(29);
  const Query hot = Parse("R(X,Y), S(Y,Z)");
  CardinalityAdvisor advisor(db);
  const double expected = advisor.EstimateLog2(hot);

  // Writer queries: chains R(X1,X2), R(X2,X3), ... of distinct lengths.
  std::vector<Query> fresh;
  const char* rels[] = {"R", "S", "T", "U", "V", "W"};
  for (int len = 2; len <= 5; ++len) {
    for (const char* rel : rels) {
      std::string text;
      for (int a = 0; a < len; ++a) {
        if (a > 0) text += ", ";
        text += std::string(rel) + "(X" + std::to_string(a) + ",X" +
                std::to_string(a + 1) + ")";
      }
      fresh.push_back(Parse(text));
    }
  }
  // Ground truth from an isolated advisor.
  CardinalityAdvisor reference(db);
  std::vector<double> fresh_expected;
  for (const Query& q : fresh) {
    fresh_expected.push_back(reference.EstimateLog2(q));
  }

  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (t % 2 == 0) {
        // Writer: compile a disjoint slice of the fresh structures.
        for (size_t i = t / 2; i < fresh.size(); i += kThreads / 2) {
          if (Mismatch(advisor.EstimateLog2(fresh[i]), fresh_expected[i])) {
            mismatches.fetch_add(1);
          }
        }
      } else {
        // Reader: the hot template must stay exact and lock-free through
        // every snapshot swap the writers publish.
        for (int round = 0; round < 300; ++round) {
          if (Mismatch(advisor.EstimateLog2(hot), expected)) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  // Chain length varies the shape multiset, but chains over different
  // relations share a structure — the cache holds one entry per length
  // plus the hot template's.
  EXPECT_LE(advisor.CompiledCacheSize(), 5u);
  EXPECT_GE(advisor.CompiledCacheSize(), 4u);
}

TEST(NormCacheBatch, BatchLookupsAreBitwiseTheSingleKeySequence) {
  // A batch visits each shard's keys in batch order, so against two caches
  // fed identically — one a batch at a time, one a batch of one per key —
  // every field of every lookup (found, norms with ==, generation) must
  // agree, as must the LRU-driven eviction, hit/miss and size books.
  NormCacheOptions options;
  options.shards = 4;
  options.byte_budget = 8 << 10;  // eviction-prone: parity must survive LRU
  ShardedNormCache single(options);
  ShardedNormCache batch(options);

  Rng rng(99);
  const char* rels[] = {"R", "S", "T", "U", "V"};
  std::vector<ShardedNormCache::Key> keys;
  for (const char* rel : rels) {
    keys.emplace_back(rel, std::vector<int>{}, std::vector<int>{0});
    keys.emplace_back(rel, std::vector<int>{0}, std::vector<int>{1});
    keys.emplace_back(rel, std::vector<int>{1}, std::vector<int>{0});
  }
  for (int round = 0; round < 50; ++round) {
    // A batch of 1-6 keys, possibly with repeats (admission batches mixing
    // hot templates repeat keys).
    std::vector<ShardedNormCache::Key> probe;
    const size_t n = 1 + rng.Uniform(6);
    for (size_t k = 0; k < n; ++k) {
      probe.push_back(keys[rng.Uniform(keys.size())]);
    }
    std::vector<ShardedNormCache::Lookup> single_got;
    for (const auto& key : probe) single_got.push_back(GetOne(single, key));
    const std::vector<ShardedNormCache::Lookup> batch_got =
        batch.GetBatch(probe);
    ASSERT_EQ(batch_got.size(), probe.size());
    std::vector<ShardedNormCache::PutItem> puts;
    for (size_t k = 0; k < probe.size(); ++k) {
      EXPECT_EQ(batch_got[k].found, single_got[k].found);
      EXPECT_EQ(batch_got[k].generation, single_got[k].generation);
      EXPECT_EQ(batch_got[k].norms, single_got[k].norms);  // bitwise
      if (!single_got[k].found) {
        // Deterministic fake "computation" both caches insert.
        std::vector<double> norms = {static_cast<double>(round),
                                     static_cast<double>(k),
                                     rng.NextDouble()};
        single.PutBatch({{probe[k], norms, single_got[k].generation}});
        puts.push_back({probe[k], norms, batch_got[k].generation});
      }
    }
    batch.PutBatch(std::move(puts));
    // Occasional invalidation, mirrored to both.
    if (round % 7 == 3) {
      const char* rel = rels[rng.Uniform(5)];
      single.InvalidateRelation(rel);
      batch.InvalidateRelation(rel);
    }
    EXPECT_EQ(batch.Size(), single.Size());
    EXPECT_EQ(batch.Bytes(), single.Bytes());
    EXPECT_EQ(batch.Evictions(), single.Evictions());
    EXPECT_EQ(batch.Hits(), single.Hits());
    EXPECT_EQ(batch.Misses(), single.Misses());
  }
}

TEST(NormCacheBatch, OneLockAcquisitionPerDistinctShardPerBatch) {
  // The whole point of the batch entry points: shard-mutex acquisitions
  // scale with distinct shards touched, not with keys. With one shard,
  // any batch costs exactly one acquisition.
  NormCacheOptions one;
  one.shards = 1;
  ShardedNormCache cache(one);
  std::vector<ShardedNormCache::Key> keys;
  for (const char* rel : {"R", "S", "T", "U", "V", "W"}) {
    keys.emplace_back(rel, std::vector<int>{}, std::vector<int>{0});
    keys.emplace_back(rel, std::vector<int>{0}, std::vector<int>{1});
  }
  uint64_t before = cache.LockAcquisitions();
  auto lookups = cache.GetBatch(keys);
  EXPECT_EQ(cache.LockAcquisitions(), before + 1);  // 12 keys, 1 shard
  std::vector<ShardedNormCache::PutItem> puts;
  for (size_t k = 0; k < keys.size(); ++k) {
    puts.push_back({keys[k], {1.0, 2.0}, lookups[k].generation});
  }
  before = cache.LockAcquisitions();
  cache.PutBatch(std::move(puts));
  EXPECT_EQ(cache.LockAcquisitions(), before + 1);
  before = cache.LockAcquisitions();
  lookups = cache.GetBatch(keys);  // warm: still one acquisition
  EXPECT_EQ(cache.LockAcquisitions(), before + 1);
  for (const auto& lookup : lookups) EXPECT_TRUE(lookup.found);

  // Many shards: a batch over k distinct relations costs at most
  // min(k, shards) acquisitions (a lookup per key would cost keys.size()).
  NormCacheOptions many;
  many.shards = 16;
  ShardedNormCache sharded(many);
  before = sharded.LockAcquisitions();
  sharded.GetBatch(keys);
  EXPECT_LE(sharded.LockAcquisitions() - before, 6u);  // 6 relations
  EXPECT_GE(sharded.LockAcquisitions() - before, 1u);

  // And through the advisor: a warm multi-query batch visits each touched
  // shard once, so the acquisition delta is bounded by the shard count,
  // not by the statistics count.
  Catalog db = StressDb();
  const std::vector<Query> queries = StressQueries();
  AdvisorOptions aopt;
  aopt.norm_cache.shards = 4;
  CardinalityAdvisor advisor(db, aopt);
  advisor.EstimateLog2Batch(queries);  // warm statistics + structures
  const uint64_t locks_before = advisor.metrics().norm_shard_locks;
  const uint64_t stats_before =
      advisor.metrics().norm_hits + advisor.metrics().norm_misses;
  advisor.EstimateLog2Batch(queries);
  const uint64_t lock_delta =
      advisor.metrics().norm_shard_locks - locks_before;
  const uint64_t stat_delta =
      advisor.metrics().norm_hits + advisor.metrics().norm_misses -
      stats_before;
  EXPECT_LE(lock_delta, 4u);         // ≈ distinct shards touched
  EXPECT_GT(stat_delta, lock_delta);  // many statistics per lock visit
}

TEST(NormCacheBatch, PutBatchRefusesEntriesInvalidatedSinceLookup) {
  ShardedNormCache cache;  // default 16 shards
  const ShardedNormCache::Key stale_key{"R", {0}, {1}};
  const ShardedNormCache::Key fresh_key{"S", {0}, {1}};
  const auto stale_gen = GetOne(cache, stale_key).generation;
  const auto fresh_gen = GetOne(cache, fresh_key).generation;
  // R is invalidated while "the computation" runs; S is not.
  cache.InvalidateRelation("R");
  cache.PutBatch({{stale_key, {1.0}, stale_gen}, {fresh_key, {2.0}, fresh_gen}});
  EXPECT_FALSE(GetOne(cache, stale_key).found);  // refused
  EXPECT_TRUE(GetOne(cache, fresh_key).found);   // the rest of the batch lands
  EXPECT_EQ(cache.Size(), 1u);
}

TEST(NormCacheBatch, EightThreadMixedBatchAndInvalidateStress) {
  // Batch lookups/inserts racing each other and invalidation across
  // shared shards: the books (hits + misses == lookups served) and the
  // found=>nonempty-norms invariant must hold throughout. TSan-checked in
  // the CI lane.
  NormCacheOptions options;
  options.shards = 4;
  options.byte_budget = 16 << 10;
  ShardedNormCache cache(options);
  const char* rels[] = {"R", "S", "T", "U", "V", "W"};
  std::vector<ShardedNormCache::Key> keys;
  for (const char* rel : rels) {
    for (int u = 0; u < 2; ++u) {
      keys.emplace_back(rel, std::vector<int>{u}, std::vector<int>{1 - u});
    }
  }
  std::atomic<uint64_t> lookups_served{0};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(3000 + t);
      for (int round = 0; round < 150; ++round) {
        if (t % 4 == 3) {
          cache.InvalidateRelation(rels[rng.Uniform(6)]);
          continue;
        }
        std::vector<ShardedNormCache::Key> probe;
        const size_t n = 1 + rng.Uniform(8);
        for (size_t k = 0; k < n; ++k) {
          probe.push_back(keys[rng.Uniform(keys.size())]);
        }
        const auto got = cache.GetBatch(probe);
        lookups_served.fetch_add(got.size());
        std::vector<ShardedNormCache::PutItem> puts;
        for (size_t k = 0; k < got.size(); ++k) {
          if (got[k].found) {
            if (got[k].norms.empty()) violations.fetch_add(1);
          } else {
            puts.push_back({probe[k], {1.0, 2.0, 3.0}, got[k].generation});
          }
        }
        if (!puts.empty()) cache.PutBatch(std::move(puts));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(cache.Hits() + cache.Misses(), lookups_served.load());
}

// Columns of `atom` binding the variables of `s`, in variable order.
std::vector<int> AtomColumns(const Atom& atom, VarSet s) {
  std::vector<int> cols;
  for (int v : VarRange(s)) {
    for (size_t j = 0; j < atom.vars.size(); ++j) {
      if (atom.vars[j] == v) cols.push_back(static_cast<int>(j));
    }
  }
  return cols;
}

// The statistics the advisor documents for `query`, computed here from the
// catalog: per atom, the cardinality assertion |Π_vars(R)| (the ℓ1 norm of
// the one-entry deg(vars|∅)), then for each of its variables v the
// conditional deg(rest|v) at every maintained norm.
std::vector<ConcreteStatistic> ReferenceStatistics(
    const Query& query, const Catalog& db, const std::vector<double>& norms) {
  std::vector<ConcreteStatistic> stats;
  for (int a = 0; a < query.num_atoms(); ++a) {
    const Atom& atom = query.atom(a);
    const Relation& rel = db.Get(atom.relation);
    const VarSet vars = atom.var_set();
    ConcreteStatistic card;
    card.sigma = {0, vars};
    card.p = 1.0;
    card.guard_atom = a;
    card.log_b =
        ComputeDegreeSequence(rel, {}, AtomColumns(atom, vars)).Log2NormP(1.0);
    stats.push_back(card);
    for (int v : VarRange(vars)) {
      const VarSet rest = vars & ~VarBit(v);
      if (rest == 0) continue;
      const DegreeSequence deg = ComputeDegreeSequence(
          rel, AtomColumns(atom, VarBit(v)), AtomColumns(atom, rest));
      for (double p : norms) {
        ConcreteStatistic s;
        s.sigma = {VarBit(v), rest};
        s.p = p;
        s.guard_atom = a;
        s.log_b = deg.Log2NormP(p);
        stats.push_back(s);
      }
    }
  }
  return stats;
}

TEST(AdvisorBatchAssembly, BatchedStatisticsAreBitwiseTheDegreeSequenceNorms) {
  // AssembleStatisticsBatch must return, per query, exactly the statistics
  // computed straight from the catalog — same order, same shapes, log_b to
  // the last bit — whatever the bound engine (the assembly is upstream of
  // the engine, but engine choice changes which statistics downstream code
  // trusts, so pin all of them), and whether a key is a cache miss, a hit,
  // or a repeat of another query's key in the same batch.
  Catalog db = StressDb();
  const std::vector<Query> queries = StressQueries();
  const std::vector<double> norms = AdvisorOptions{}.norms;
  for (const char* engine : {"gamma", "normal", "auto", "agm", "panda"}) {
    AdvisorOptions options;
    options.bound_engine = engine;
    CardinalityAdvisor advisor(db, options);
    // Repeats across queries exercise the batch dedup path; the second
    // round is served from the cache.
    std::vector<Query> doubled = queries;
    doubled.insert(doubled.end(), queries.begin(), queries.end());
    for (int round = 0; round < 2; ++round) {
      const auto batched = advisor.AssembleStatisticsBatch(doubled);
      ASSERT_EQ(batched.size(), doubled.size());
      for (size_t i = 0; i < doubled.size(); ++i) {
        const auto expected = ReferenceStatistics(doubled[i], db, norms);
        ASSERT_EQ(batched[i].size(), expected.size())
            << engine << " query " << i;
        for (size_t s = 0; s < expected.size(); ++s) {
          EXPECT_EQ(batched[i][s].log_b, expected[s].log_b)  // bitwise
              << engine << " round " << round << " query " << i << " stat "
              << s;
          EXPECT_EQ(batched[i][s].p, expected[s].p);
          EXPECT_EQ(batched[i][s].guard_atom, expected[s].guard_atom);
          EXPECT_EQ(batched[i][s].sigma.u, expected[s].sigma.u);
          EXPECT_EQ(batched[i][s].sigma.v, expected[s].sigma.v);
        }
      }
    }
  }
}

TEST(AdvisorConcurrent, ShardedStoreScalesAcrossRelations) {
  // Pure statistics-store contention: threads repeatedly estimate
  // single-relation queries over distinct relations, which hash to
  // distinct shards; with the store pre-warmed this is lock-read-copy
  // only and must stay exact throughout.
  Catalog db = StressDb(23);
  const std::vector<Query> queries = {
      Parse("R(X,Y), R(Y,Z)"), Parse("S(X,Y), S(Y,Z)"),
      Parse("T(X,Y), T(Y,Z)"), Parse("U(X,Y), U(Y,Z)"),
      Parse("V(X,Y), V(Y,Z)"), Parse("W(X,Y), W(Y,Z)")};
  CardinalityAdvisor advisor(db);
  std::vector<double> expected;
  for (const Query& q : queries) expected.push_back(advisor.EstimateLog2(q));

  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Query& q = queries[t % queries.size()];
      const double want = expected[t % queries.size()];
      for (int round = 0; round < 200; ++round) {
        if (Mismatch(advisor.EstimateLog2(q), want)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace lpb
