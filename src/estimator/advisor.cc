#include "estimator/advisor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace lpb {
namespace {

int ColumnOfVar(const Atom& atom, int v) {
  for (size_t j = 0; j < atom.vars.size(); ++j) {
    if (atom.vars[j] == v) return static_cast<int>(j);
  }
  return -1;
}

std::vector<int> ColumnsOf(const Atom& atom, VarSet s) {
  std::vector<int> cols;
  cols.reserve(SetSize(s));
  for (int v : VarRange(s)) cols.push_back(ColumnOfVar(atom, v));
  return cols;
}

// One degree-sequence lookup a query's statistics assembly needs: the
// norm-store key plus how its cached norms materialize into statistics
// (every maintained norm for a conditional, one ℓ1 statistic for a
// cardinality assertion).
struct StatRequest {
  ShardedNormCache::Key key;
  Conditional sigma;
  bool cardinality = false;  // emit one p == 1 statistic: |Π_V(R)|
  int guard_atom = -1;
};

// Appends the query's lookups to `requests`, in statistics order.
void AppendStatRequests(const Query& query,
                        std::vector<StatRequest>& requests) {
  for (int a = 0; a < query.num_atoms(); ++a) {
    const Atom& atom = query.atom(a);
    const VarSet atom_vars = atom.var_set();

    // Cardinality assertion (ℓ1 over (vars | ∅)).
    {
      StatRequest r;
      r.key = {atom.relation, {}, ColumnsOf(atom, atom_vars)};
      r.sigma = {0, atom_vars};
      r.cardinality = true;
      r.guard_atom = a;
      requests.push_back(std::move(r));
    }

    // Simple per-variable conditionals.
    for (int v : VarRange(atom_vars)) {
      const VarSet u = VarBit(v);
      const VarSet rest = atom_vars & ~u;
      if (rest == 0) continue;
      StatRequest r;
      r.key = {atom.relation, ColumnsOf(atom, u), ColumnsOf(atom, rest)};
      r.sigma = {u, rest};
      r.guard_atom = a;
      requests.push_back(std::move(r));
    }
  }
}

// The maintained norm a cardinality assertion reads. deg(V|∅) has exactly
// one entry, |Π_V(R)|, so every norm of it is that entry. The ℓ1 and ℓ∞
// slots hold exactly its log2; any other slot may be an ulp off, so it is
// read only when neither is maintained.
size_t CardinalitySlot(const std::vector<double>& norm_ps) {
  for (size_t k = 0; k < norm_ps.size(); ++k) {
    if (norm_ps[k] == 1.0 || norm_ps[k] >= kInfNorm / 2) return k;
  }
  return 0;
}

// Materializes one request's statistics from its cached norm vector
// (aligned with `norm_ps`, the advisor's maintained norm indices).
void AppendStats(const StatRequest& request,
                 const std::vector<double>& log_norms,
                 const std::vector<double>& norm_ps,
                 std::vector<ConcreteStatistic>& stats) {
  ConcreteStatistic s;
  s.sigma = request.sigma;
  s.guard_atom = request.guard_atom;
  if (request.cardinality) {
    if (norm_ps.empty()) return;
    s.p = 1.0;
    s.log_b = log_norms[CardinalitySlot(norm_ps)];
    stats.push_back(s);
    return;
  }
  for (size_t k = 0; k < norm_ps.size(); ++k) {
    s.p = norm_ps[k];
    s.log_b = log_norms[k];
    stats.push_back(s);
  }
}

// Hash of a norm-store key, for deduplicating a batch's requests.
size_t KeyHash(const ShardedNormCache::Key& key) {
  size_t h = std::hash<std::string>{}(std::get<0>(key));
  for (int c : std::get<1>(key)) h = h * 31 + static_cast<size_t>(c);
  h = h * 31 + 0x9e3779b9u;  // separates the U and V column lists
  for (int c : std::get<2>(key)) h = h * 31 + static_cast<size_t>(c);
  return h;
}

// Numbers the distinct values of indices 0..n-1 (defined by `hash(i)` and
// `equal(a, b)`) in order of first appearance, in one pass over an
// open-addressing table of (hash, first index).
template <typename Hash, typename Equal>
std::vector<size_t> DistinctIds(size_t n, const Hash& hash,
                                const Equal& equal) {
  constexpr size_t kEmpty = ~size_t{0};
  size_t mask = 1;
  while (mask < 2 * n) mask <<= 1;
  --mask;
  std::vector<std::pair<size_t, size_t>> table(mask + 1, {0, kEmpty});
  std::vector<size_t> ids(n);
  size_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t h = hash(i);
    size_t s = h & mask;
    while (table[s].second != kEmpty &&
           !(table[s].first == h && equal(table[s].second, i))) {
      s = (s + 1) & mask;
    }
    if (table[s].second == kEmpty) table[s] = {h, i};
    ids[i] = table[s].second == i ? next++ : ids[table[s].second];
  }
  return ids;
}

// Fills the norms (at `norm_ps`) of every lookup of `keys` that missed.
// Every missed key of one (relation, U ∪ V as a set) counts the same
// distinct rows of that projection, so each such group is one
// ComputeDegreeSequences call: one sort.
void ComputeMissedNorms(const Catalog& catalog,
                        const std::vector<double>& norm_ps,
                        std::span<const ShardedNormCache::Key> keys,
                        std::span<ShardedNormCache::Lookup> lookups) {
  // Miss i's group is the key (relation, {}, U ∪ V sorted), so KeyHash and
  // == group it; group_of[i] numbers groups in first-appearance order.
  std::vector<size_t> missed;
  std::vector<ShardedNormCache::Key> column_sets;
  for (size_t s = 0; s < keys.size(); ++s) {
    if (lookups[s].found) continue;
    const auto& [relation, u_cols, v_cols] = keys[s];
    std::vector<int> cols = u_cols;
    cols.insert(cols.end(), v_cols.begin(), v_cols.end());
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    missed.push_back(s);
    column_sets.push_back({relation, {}, std::move(cols)});
  }
  const std::vector<size_t> group_of = DistinctIds(
      missed.size(), [&](size_t i) { return KeyHash(column_sets[i]); },
      [&](size_t a, size_t b) { return column_sets[a] == column_sets[b]; });
  std::vector<std::vector<size_t>> members;
  for (size_t i = 0; i < missed.size(); ++i) {
    if (group_of[i] == members.size()) members.emplace_back();
    members[group_of[i]].push_back(missed[i]);
  }

  for (const std::vector<size_t>& group : members) {
    // The first key's U then V is the sort order, so that U leads.
    const auto& [relation, first_u, first_v] = keys[group[0]];
    std::vector<int> cols = first_u;
    cols.insert(cols.end(), first_v.begin(), first_v.end());
    std::vector<std::vector<int>> u_sets;
    u_sets.reserve(group.size());
    for (size_t s : group) u_sets.push_back(std::get<1>(keys[s]));
    const std::vector<DegreeSequence> degs =
        ComputeDegreeSequences(catalog.Get(relation), cols, u_sets);
    for (size_t k = 0; k < group.size(); ++k) {
      std::vector<double>& norms = lookups[group[k]].norms;
      norms.reserve(norm_ps.size());
      for (double p : norm_ps) norms.push_back(degs[k].Log2NormP(p));
    }
  }
}

}  // namespace

CardinalityAdvisor::CardinalityAdvisor(const Catalog& catalog,
                                       AdvisorOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      norms_(options_.norm_cache),
      compiled_(std::make_shared<const CompiledMap>()) {}

size_t CardinalityAdvisor::StructureKeyHash::operator()(
    const std::string& key) const {
  // Four independent multiply lanes over 8-byte words: ~3x faster than
  // std::hash's one dependent chain, paid per query (grouping) and per
  // group (compiled-cache lookup).
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  const auto word = [&](size_t i) {
    uint64_t w;
    std::memcpy(&w, key.data() + i, sizeof w);
    return w;
  };
  uint64_t lane[4] = {1, 2, 3, 4};
  size_t i = 0;
  for (; i + 32 <= key.size(); i += 32) {
    lane[0] = (lane[0] ^ word(i)) * kMul;
    lane[1] = (lane[1] ^ word(i + 8)) * kMul;
    lane[2] = (lane[2] ^ word(i + 16)) * kMul;
    lane[3] = (lane[3] ^ word(i + 24)) * kMul;
  }
  uint64_t h = key.size();
  for (; i + 8 <= key.size(); i += 8) h = (h ^ word(i)) * kMul;
  for (; i < key.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(key[i])) * kMul;
  }
  for (uint64_t l : lane) h = (h ^ l ^ (l >> 29)) * kMul;
  return static_cast<size_t>(h ^ (h >> 32));
}

std::vector<std::vector<ConcreteStatistic>>
CardinalityAdvisor::AssembleStatisticsBatch(std::span<const Query> queries) {
  // Every query's degree-sequence lookups, flat: query i owns requests
  // [query_begin[i], query_begin[i + 1]).
  std::vector<StatRequest> requests;
  size_t most = 0;  // a cardinality plus at most one conditional per column
  for (const Query& query : queries) {
    for (const Atom& atom : query.atoms()) most += 1 + atom.vars.size();
  }
  requests.reserve(most);
  std::vector<size_t> query_begin(queries.size() + 1, 0);
  for (size_t i = 0; i < queries.size(); ++i) {
    AppendStatRequests(queries[i], requests);
    query_begin[i + 1] = requests.size();
  }

  // Dedup the keys (admission batches mix a few hot templates; self-joins
  // repeat keys): slot[r] is the position of request r's key in
  // `distinct`, which lists them in first-appearance order.
  std::vector<size_t> slot = DistinctIds(
      requests.size(), [&](size_t r) { return KeyHash(requests[r].key); },
      [&](size_t a, size_t b) { return requests[a].key == requests[b].key; });
  std::vector<ShardedNormCache::Key> distinct;
  distinct.reserve(requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    if (slot[r] == distinct.size()) {
      distinct.push_back(std::move(requests[r].key));
    }
  }

  // Misses are computed outside any lock (degree-sequence extraction sorts
  // the whole relation) and land under the generation their lookup saw: a
  // concurrent Invalidate refuses the stale insert, and this batch still
  // serves its computed values.
  std::vector<ShardedNormCache::Lookup> lookups = norms_.GetBatch(distinct);
  ComputeMissedNorms(catalog_, options_.norms, distinct, lookups);
  std::vector<ShardedNormCache::PutItem> puts;
  for (size_t s = 0; s < distinct.size(); ++s) {
    if (!lookups[s].found) {
      puts.push_back({distinct[s], lookups[s].norms, lookups[s].generation});
    }
  }
  if (!puts.empty()) norms_.PutBatch(std::move(puts));

  std::vector<std::vector<ConcreteStatistic>> out(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    out[i].reserve((query_begin[i + 1] - query_begin[i]) *
                   options_.norms.size());
    for (size_t r = query_begin[i]; r < query_begin[i + 1]; ++r) {
      AppendStats(requests[r], lookups[slot[r]].norms, options_.norms,
                  out[i]);
    }
  }
  return out;
}

std::shared_ptr<CardinalityAdvisor::CompiledEntry>
CardinalityAdvisor::LookupOrCompile(
    const std::string& key, int n,
    const std::vector<ConcreteStatistic>& stats) {
  // Hot path: one atomic load of the immutable snapshot — no lock, so a
  // writer burst (a batch of fresh templates compiling) never serializes
  // concurrent readers of already-compiled structures.
  {
    std::shared_ptr<const CompiledMap> snapshot =
        compiled_.load(std::memory_order_acquire);
    auto it = snapshot->find(key);
    if (it != snapshot->end()) {
      compiled_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Compile outside the writer lock — Γn compilation materializes the
  // elemental lattice. If another thread compiled the same structure
  // meanwhile, its entry wins and ours is dropped.
  const BoundEngine* engine = FindBoundEngine(options_.bound_engine);
  if (engine == nullptr) engine = FindBoundEngine("auto");
  auto fresh = std::make_shared<CompiledEntry>();
  fresh->bound = engine->Compile(StructureOf(n, stats), options_.engine);
  std::lock_guard<std::mutex> lock(compiled_writer_mu_);
  std::shared_ptr<const CompiledMap> current =
      compiled_.load(std::memory_order_acquire);
  auto it = current->find(key);
  if (it != current->end()) {
    compiled_hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  // Copy-on-write publish: readers keep whatever snapshot they hold; the
  // next lookup sees the new map.
  auto next = std::make_shared<CompiledMap>(*current);
  auto [pos, inserted] = next->emplace(key, std::move(fresh));
  compiled_.store(std::shared_ptr<const CompiledMap>(std::move(next)),
                  std::memory_order_release);
  compiled_misses_.fetch_add(1, std::memory_order_relaxed);
  (void)inserted;
  return pos->second;
}

std::vector<BoundResult> CardinalityAdvisor::EvaluateGroup(
    const std::string& key, int n,
    const std::vector<ConcreteStatistic>& stats,
    std::span<const std::vector<double>> columns, bool want_h_opt) {
  if (n == 0) {
    // The empty conjunction has one (empty) answer tuple: log2 1 = 0. No
    // bound engine accepts a 0-variable structure, and only a column the
    // size of its (empty) statistics set can be priced.
    std::vector<BoundResult> results(columns.size());
    uint64_t served = 0;
    for (size_t c = 0; c < columns.size(); ++c) {
      if (columns[c].size() != stats.size()) continue;
      results[c].status = LpStatus::kOptimal;
      results[c].log2_bound = 0.0;
      ++served;
    }
    estimates_.fetch_add(served, std::memory_order_relaxed);
    return results;
  }
  std::shared_ptr<CompiledEntry> entry = LookupOrCompile(key, n, stats);
  std::vector<BoundResult> results;
  EvalCounters before, after;
  {
    // One lock for the whole group (one evaluation sequence, see
    // CompiledEntry); the counter reads around it see exactly its work.
    std::lock_guard<std::mutex> lock(entry->mu);
    before = entry->bound->counters();
    results = entry->bound->EvaluateBatch(columns, want_h_opt);
    after = entry->bound->counters();
  }
  uint64_t pivots = 0;
  uint64_t refactorizations = 0;
  for (const BoundResult& result : results) {
    pivots += static_cast<uint64_t>(result.lp_stats.TotalPivots());
    refactorizations +=
        static_cast<uint64_t>(result.lp_stats.refactorizations);
  }
  const auto add = [](std::atomic<uint64_t>& counter, uint64_t delta) {
    if (delta != 0) counter.fetch_add(delta, std::memory_order_relaxed);
  };
  add(estimates_, after.evaluations - before.evaluations);
  add(witness_hits_, after.witness_hits - before.witness_hits);
  add(warm_resolves_, after.warm_resolves - before.warm_resolves);
  add(cold_solves_, after.cold_solves - before.cold_solves);
  add(lp_pivots_, pivots);
  add(lp_refactorizations_, refactorizations);
  return results;
}

template <typename Sink>
std::vector<std::vector<ConcreteStatistic>> CardinalityAdvisor::Run(
    std::span<const Query> queries, bool want_h_opt, const Sink& sink) {
  std::vector<std::vector<ConcreteStatistic>> stats =
      AssembleStatisticsBatch(queries);
  // Group queries by structure in first-appearance order, so every group
  // pays one compiled-cache lookup and one per-bound lock, and its value
  // columns ride the batch path together.
  std::vector<std::string> keys(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    keys[i] = StructureKey(StructureOf(queries[i].num_vars(), stats[i]));
  }
  const StructureKeyHash key_hash;
  const std::vector<size_t> group_of = DistinctIds(
      queries.size(), [&](size_t i) { return key_hash(keys[i]); },
      [&](size_t a, size_t b) { return keys[a] == keys[b]; });
  struct Group {
    std::vector<size_t> members;  // query indices, ascending
    std::vector<std::vector<double>> values;
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (group_of[i] == groups.size()) groups.emplace_back();
    groups[group_of[i]].members.push_back(i);
    groups[group_of[i]].values.push_back(ValuesOf(stats[i]));
  }
  for (const Group& group : groups) {
    const size_t first = group.members[0];
    std::vector<BoundResult> results =
        EvaluateGroup(keys[first], queries[first].num_vars(), stats[first],
                      group.values, want_h_opt);
    for (size_t k = 0; k < results.size(); ++k) {
      sink(group.members[k], std::move(results[k]));
    }
  }
  return stats;
}

double CardinalityAdvisor::EstimateLog2(const Query& query) {
  double out = kInfNorm;
  Run(std::span<const Query>(&query, 1), /*want_h_opt=*/false,
      [&](size_t, BoundResult&& result) { out = result.log2_bound; });
  return out;
}

double CardinalityAdvisor::Estimate(const Query& query) {
  return std::exp2(EstimateLog2(query));
}

std::vector<double> CardinalityAdvisor::EstimateLog2Batch(
    const Query& query, std::span<const std::vector<double>> log_b_batch) {
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  batch_probes_.fetch_add(log_b_batch.size(), std::memory_order_relaxed);
  // The query's own statistics fix the structure; the caller's columns are
  // its one group, and EvaluateBatch answers columns it cannot price.
  const std::vector<ConcreteStatistic> stats =
      std::move(AssembleStatisticsBatch(std::span<const Query>(&query, 1))[0]);
  const std::vector<BoundResult> results = EvaluateGroup(
      StructureKey(StructureOf(query.num_vars(), stats)), query.num_vars(),
      stats, log_b_batch, /*want_h_opt=*/false);
  std::vector<double> out(results.size());
  for (size_t c = 0; c < results.size(); ++c) out[c] = results[c].log2_bound;
  return out;
}

std::vector<double> CardinalityAdvisor::EstimateLog2Batch(
    const std::vector<Query>& queries) {
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  batch_probes_.fetch_add(queries.size(), std::memory_order_relaxed);
  std::vector<double> out(queries.size());
  Run(queries, /*want_h_opt=*/false, [&](size_t i, BoundResult&& result) {
    out[i] = result.log2_bound;
  });
  return out;
}

std::vector<double> CardinalityAdvisor::EstimateBatch(
    const std::vector<Query>& queries) {
  std::vector<double> out = EstimateLog2Batch(queries);
  for (double& v : out) v = std::exp2(v);
  return out;
}

CardinalityAdvisor::Explanation CardinalityAdvisor::Explain(
    const Query& query) {
  Explanation out;
  std::vector<std::vector<ConcreteStatistic>> stats =
      Run(std::span<const Query>(&query, 1), /*want_h_opt=*/true,
          [&](size_t, BoundResult&& result) { out.bound = std::move(result); });
  out.stats = std::move(stats[0]);
  for (ConcreteStatistic& s : out.stats) s.label = ToString(s, query);
  out.metrics = metrics();
  out.lp_backend = LpBackendName(LpBackendKind::kRevised);
  return out;
}

size_t CardinalityAdvisor::CacheSize() const { return norms_.Size(); }

size_t CardinalityAdvisor::CacheBytes() const { return norms_.Bytes(); }

size_t CardinalityAdvisor::CompiledCacheSize() const {
  return compiled_.load(std::memory_order_acquire)->size();
}

AdvisorMetrics CardinalityAdvisor::metrics() const {
  AdvisorMetrics m;
  m.estimates = estimates_.load(std::memory_order_relaxed);
  m.batch_calls = batch_calls_.load(std::memory_order_relaxed);
  m.batch_probes = batch_probes_.load(std::memory_order_relaxed);
  m.compiled_hits = compiled_hits_.load(std::memory_order_relaxed);
  m.compiled_misses = compiled_misses_.load(std::memory_order_relaxed);
  m.witness_hits = witness_hits_.load(std::memory_order_relaxed);
  m.warm_resolves = warm_resolves_.load(std::memory_order_relaxed);
  m.cold_solves = cold_solves_.load(std::memory_order_relaxed);
  m.norm_evictions = norms_.Evictions();
  m.norm_hits = norms_.Hits();
  m.norm_misses = norms_.Misses();
  m.norm_shard_locks = norms_.LockAcquisitions();
  m.lp_pivots = lp_pivots_.load(std::memory_order_relaxed);
  m.lp_refactorizations =
      lp_refactorizations_.load(std::memory_order_relaxed);
  return m;
}

void CardinalityAdvisor::Invalidate(const std::string& relation) {
  norms_.InvalidateRelation(relation);
}

}  // namespace lpb
