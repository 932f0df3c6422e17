#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "relation/catalog.h"
#include "relation/degree_sequence.h"
#include "relation/relation.h"
#include "util/random.h"

namespace lpb {
namespace {

Relation EdgeRelation() {
  Relation r("R", {"X", "Y"});
  // X=0 has partners {10,11,12}; X=1 has {10}; X=2 has {11,12}.
  r.AddRow({0, 10});
  r.AddRow({0, 11});
  r.AddRow({0, 12});
  r.AddRow({1, 10});
  r.AddRow({2, 11});
  r.AddRow({2, 12});
  return r;
}

TEST(Relation, BasicAccessors) {
  Relation r = EdgeRelation();
  EXPECT_EQ(r.name(), "R");
  EXPECT_EQ(r.arity(), 2);
  EXPECT_EQ(r.NumRows(), 6u);
  EXPECT_EQ(r.AttrIndex("Y"), 1);
  EXPECT_EQ(r.AttrIndex("Z"), -1);
  EXPECT_EQ(r.At(2, 1), 12u);
}

TEST(Relation, DistinctCount) {
  Relation r = EdgeRelation();
  EXPECT_EQ(DistinctCount(r, {0}), 3u);
  EXPECT_EQ(DistinctCount(r, {1}), 3u);
  EXPECT_EQ(DistinctCount(r, {0, 1}), 6u);
}

TEST(Relation, DistinctCountWithDuplicates) {
  Relation r("R", {"X"});
  r.AddRow({1});
  r.AddRow({1});
  r.AddRow({2});
  EXPECT_EQ(DistinctCount(r, {0}), 2u);
}

TEST(Relation, ProjectDeduplicates) {
  Relation r = EdgeRelation();
  Relation p = r.Project({0});
  EXPECT_EQ(p.NumRows(), 3u);
  EXPECT_EQ(p.arity(), 1);
  EXPECT_EQ(p.attr(0), "X");
}

TEST(Relation, ProjectAllowsRepeatedColumns) {
  Relation r = EdgeRelation();
  Relation p = r.Project({1, 1});
  EXPECT_EQ(p.NumRows(), 3u);
  EXPECT_EQ(p.At(0, 0), p.At(0, 1));
}

TEST(Relation, DeduplicateRemovesFullRowDupes) {
  Relation r("R", {"X", "Y"});
  r.AddRow({1, 2});
  r.AddRow({1, 2});
  r.AddRow({1, 3});
  r.Deduplicate();
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST(Relation, SortedOrderIsLexicographic) {
  Relation r("R", {"X", "Y"});
  r.AddRow({2, 1});
  r.AddRow({1, 9});
  r.AddRow({1, 3});
  auto order = r.SortedOrder({0, 1});
  EXPECT_EQ(r.At(order[0], 0), 1u);
  EXPECT_EQ(r.At(order[0], 1), 3u);
  EXPECT_EQ(r.At(order[2], 0), 2u);
}

TEST(Relation, EmptyRelation) {
  Relation r("R", {"X", "Y"});
  EXPECT_EQ(r.NumRows(), 0u);
  EXPECT_EQ(DistinctCount(r, {0}), 0u);
  EXPECT_EQ(r.Project({0}).NumRows(), 0u);
}

TEST(DegreeSequence, SortsDescendingAndDropsZeros) {
  DegreeSequence d({1, 5, 0, 3, 0});
  EXPECT_EQ(d.degrees(), (std::vector<uint64_t>{5, 3, 1}));
  EXPECT_EQ(d.MaxDegree(), 5u);
  EXPECT_EQ(d.Total(), 9u);
}

TEST(DegreeSequence, NormsMatchHandComputation) {
  DegreeSequence d({3, 2, 1});
  EXPECT_NEAR(d.NormP(1.0), 6.0, 1e-9);
  EXPECT_NEAR(d.NormP(2.0), std::sqrt(14.0), 1e-9);
  EXPECT_NEAR(d.NormP(3.0), std::cbrt(36.0), 1e-9);
  EXPECT_NEAR(d.NormP(kInfNorm), 3.0, 1e-9);
}

TEST(DegreeSequence, Log2NormConsistentWithNormP) {
  DegreeSequence d({7, 7, 2, 1});
  for (double p : {1.0, 2.0, 3.5, 10.0}) {
    EXPECT_NEAR(std::exp2(d.Log2NormP(p)), d.NormP(p), 1e-6);
  }
}

TEST(DegreeSequence, LargePNoOverflow) {
  DegreeSequence d({1000000, 999999, 2});
  double log30 = d.Log2NormP(30.0);
  // ||d||_30 is slightly above the max degree.
  EXPECT_GT(log30, std::log2(1e6) - 1e-9);
  EXPECT_LT(log30, std::log2(1e6) + 0.1);
  EXPECT_TRUE(std::isfinite(log30));
}

TEST(DegreeSequence, NormMonotoneDecreasingInP) {
  DegreeSequence d({9, 4, 4, 1, 1, 1});
  double prev = d.NormP(0.5);
  for (double p : {1.0, 1.5, 2.0, 3.0, 5.0, 10.0, kInfNorm}) {
    double cur = d.NormP(p);
    EXPECT_LE(cur, prev + 1e-9) << "p=" << p;
    prev = cur;
  }
}

TEST(DegreeSequence, DominatedBy) {
  DegreeSequence a({3, 2, 1}), b({3, 3, 2}), c({4, 1});
  EXPECT_TRUE(a.DominatedBy(b));
  EXPECT_FALSE(b.DominatedBy(a));
  EXPECT_FALSE(a.DominatedBy(c));  // shorter but first entry larger? 4>3 ok, but len
  EXPECT_TRUE(DegreeSequence({2, 1}).DominatedBy(a));
}

TEST(ComputeDegreeSequence, SimpleBinary) {
  Relation r = EdgeRelation();
  DegreeSequence d = ComputeDegreeSequence(r, {0}, {1});
  EXPECT_EQ(d.degrees(), (std::vector<uint64_t>{3, 2, 1}));
  DegreeSequence d2 = ComputeDegreeSequence(r, {1}, {0});
  EXPECT_EQ(d2.degrees(), (std::vector<uint64_t>{2, 2, 2}));
}

TEST(ComputeDegreeSequence, DuplicateEdgesCountedOnce) {
  Relation r("R", {"X", "Y"});
  r.AddRow({0, 1});
  r.AddRow({0, 1});
  r.AddRow({0, 2});
  DegreeSequence d = ComputeDegreeSequence(r, {0}, {1});
  EXPECT_EQ(d.degrees(), (std::vector<uint64_t>{2}));
}

TEST(ComputeDegreeSequence, EmptyUGivesSingleGroup) {
  Relation r = EdgeRelation();
  DegreeSequence d = ComputeDegreeSequence(r, {}, {1});
  EXPECT_EQ(d.degrees(), (std::vector<uint64_t>{3}));  // |Π_Y(R)| = 3
}

TEST(ComputeDegreeSequence, EmptyVGivesAllOnes) {
  Relation r = EdgeRelation();
  DegreeSequence d = ComputeDegreeSequence(r, {0}, {});
  EXPECT_EQ(d.degrees(), (std::vector<uint64_t>{1, 1, 1}));
}

TEST(ComputeDegreeSequence, TernaryRelationPairConditional) {
  Relation r("R", {"A", "B", "C"});
  r.AddRow({0, 0, 1});
  r.AddRow({0, 0, 2});
  r.AddRow({0, 1, 1});
  r.AddRow({1, 0, 5});
  DegreeSequence d = ComputeDegreeSequence(r, {0, 1}, {2});
  EXPECT_EQ(d.degrees(), (std::vector<uint64_t>{2, 1, 1}));
}

TEST(DegreeSequence, SubUnitNormIndex) {
  // p in (0, 1) is legal in the paper's framework; ||d||_p is then larger
  // than ||d||_1.
  DegreeSequence d({3, 2, 1});
  EXPECT_GT(d.NormP(0.5), d.NormP(1.0));
  EXPECT_TRUE(std::isfinite(d.Log2NormP(0.5)));
}

TEST(DegreeSequence, SingleEntrySequenceAllNormsEqual) {
  DegreeSequence d({7});
  for (double p : {0.5, 1.0, 2.0, 30.0, kInfNorm}) {
    EXPECT_NEAR(d.NormP(p), 7.0, 1e-9) << p;
  }
}

TEST(DegreeSequence, EmptySequence) {
  DegreeSequence d;
  EXPECT_EQ(d.MaxDegree(), 0u);
  EXPECT_EQ(d.Total(), 0u);
  EXPECT_EQ(d.NormP(2.0), 0.0);
  EXPECT_TRUE(std::isinf(d.Log2NormP(2.0)));
}

TEST(ComputeDegreeSequence, EmptyRelation) {
  Relation r("R", {"X", "Y"});
  EXPECT_TRUE(ComputeDegreeSequence(r, {0}, {1}).empty());
}

// Randomized differential check of the degree-sequence kernel (packed-key
// radix sort, comparator fallback past 64 key bits) and of Log2NormP's
// run-length evaluation against brute-force references. The seed is
// overridable via LPB_DIFF_SEED so CI can run several fixed seeds; a
// failure prints the seed and trial for replay.
uint64_t DiffSeed() {
  const char* env = std::getenv("LPB_DIFF_SEED");
  if (env != nullptr && *env != '\0') {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 12345;
}

std::vector<Value> ProjectRow(const Relation& r, size_t row,
                              const std::vector<int>& cols) {
  std::vector<Value> out;
  for (int c : cols) out.push_back(r.At(row, c));
  return out;
}

// deg(V|U) by brute force: the distinct (u, v) pairs in a std::set, counted
// per u in a std::map, sorted non-increasing.
std::vector<uint64_t> ReferenceDegrees(const Relation& r,
                                       const std::vector<int>& u_cols,
                                       const std::vector<int>& v_cols) {
  std::set<std::pair<std::vector<Value>, std::vector<Value>>> edges;
  for (size_t row = 0; row < r.NumRows(); ++row) {
    edges.insert({ProjectRow(r, row, u_cols), ProjectRow(r, row, v_cols)});
  }
  std::map<std::vector<Value>, uint64_t> degree;
  for (const auto& edge : edges) ++degree[edge.first];
  std::vector<uint64_t> out;
  for (const auto& [u, d] : degree) out.push_back(d);
  std::sort(out.begin(), out.end(), std::greater<uint64_t>());
  return out;
}

size_t ReferenceDistinct(const Relation& r, const std::vector<int>& cols) {
  std::set<std::vector<Value>> tuples;
  for (size_t row = 0; row < r.NumRows(); ++row) {
    tuples.insert(ProjectRow(r, row, cols));
  }
  return tuples.size();
}

// Log2NormP's per-entry formula: one exp2/log2 per degree.
double PerEntryLog2Norm(const std::vector<uint64_t>& d, double p) {
  if (d.empty()) return -kInfNorm;
  if (p >= kInfNorm / 2) return std::log2(static_cast<double>(d[0]));
  const double max_log = p * std::log2(static_cast<double>(d[0]));
  double sum = 0.0;
  for (uint64_t x : d) {
    sum += std::exp2(p * std::log2(static_cast<double>(x)) - max_log);
  }
  return (max_log + std::log2(sum)) / p;
}

constexpr double kDiffNorms[] = {0.5, 1.0, 2.0, 3.0, 4.0, 30.0, kInfNorm};

// A value below 2^bits; with `top` set, exactly bits wide.
Value RandomValue(Rng& rng, int bits, bool top) {
  if (bits == 0) return 0;
  const Value mask = bits == 64 ? ~Value{0} : (Value{1} << bits) - 1;
  Value v = rng.Next() & mask;
  if (top) v |= Value{1} << (bits - 1);
  return v;
}

// A relation whose column c holds values of widths[c] bits, drawn from a
// small pool so rows repeat, with some rows copied verbatim.
Relation RandomRelation(Rng& rng, const std::vector<int>& widths,
                        size_t rows) {
  const int arity = static_cast<int>(widths.size());
  std::vector<std::string> names;
  for (int c = 0; c < arity; ++c) names.push_back("c" + std::to_string(c));
  Relation r("R", names);
  std::vector<std::vector<Value>> pools(arity);
  for (int c = 0; c < arity; ++c) {
    const size_t pool = 1 + rng.Uniform(rng.Bernoulli(0.5) ? 4 : 200);
    for (size_t i = 0; i < pool; ++i) {
      pools[c].push_back(RandomValue(rng, widths[c], i == 0));
    }
  }
  std::vector<Value> row(arity);
  for (size_t i = 0; i < rows; ++i) {
    if (i > 0 && rng.Bernoulli(0.1)) {
      const size_t src = rng.Uniform(i);
      for (int c = 0; c < arity; ++c) row[c] = r.At(src, c);
    } else {
      for (int c = 0; c < arity; ++c) {
        row[c] = pools[c][rng.Uniform(pools[c].size())];
      }
    }
    r.AddRow(row);
  }
  return r;
}

void ExpectMatchesReference(const Relation& r, const std::vector<int>& u_cols,
                            const std::vector<int>& v_cols) {
  const DegreeSequence d = ComputeDegreeSequence(r, u_cols, v_cols);
  ASSERT_EQ(d.degrees(), ReferenceDegrees(r, u_cols, v_cols));
  for (double p : kDiffNorms) {
    EXPECT_EQ(d.Log2NormP(p), PerEntryLog2Norm(d.degrees(), p)) << "p=" << p;
  }
}

TEST(DegreeSequenceDifferential, MatchesBruteForceOnRandomRelations) {
  const uint64_t seed = DiffSeed();
  Rng rng(seed);
  constexpr int kWidths[] = {0, 1, 3, 8, 16, 24, 32, 40, 63, 64};
  constexpr size_t kRows[] = {0, 1, 2, 17, 255, 256, 257, 1000, 3000};
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("LPB_DIFF_SEED=" + std::to_string(seed) +
                 " trial=" + std::to_string(trial));
    const int arity = 1 + static_cast<int>(rng.Uniform(4));
    std::vector<int> widths(arity);
    for (int& w : widths) w = kWidths[rng.Uniform(std::size(kWidths))];
    const Relation r =
        RandomRelation(rng, widths, kRows[rng.Uniform(std::size(kRows))]);
    // A random split of a random column order into U, V and unused
    // columns; U or V (or both) may come out empty.
    std::vector<int> cols(arity);
    for (int c = 0; c < arity; ++c) cols[c] = c;
    for (int c = arity - 1; c > 0; --c) {
      std::swap(cols[c], cols[rng.Uniform(c + 1)]);
    }
    const size_t u_end = rng.Uniform(arity + 1);
    const size_t v_end = u_end + rng.Uniform(arity - u_end + 1);
    const std::vector<int> u_cols(cols.begin(), cols.begin() + u_end);
    const std::vector<int> v_cols(cols.begin() + u_end, cols.begin() + v_end);
    ExpectMatchesReference(r, u_cols, v_cols);
    std::vector<int> uv = u_cols;
    uv.insert(uv.end(), v_cols.begin(), v_cols.end());
    EXPECT_EQ(DistinctCount(r, uv), ReferenceDistinct(r, uv));
  }
}

TEST(DegreeSequenceDifferential, KeyWidthEdges) {
  Rng rng(DiffSeed());
  for (size_t rows : {size_t{40}, size_t{2000}}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    // 40 + 30 = 70 bits: the comparator fallback.
    const Relation wide = RandomRelation(rng, {40, 30}, rows);
    std::vector<uint64_t> words;
    std::vector<int> widths;
    EXPECT_FALSE(wide.SortedPackedRows({0, 1}, words, widths));
    ExpectMatchesReference(wide, {0}, {1});
    ExpectMatchesReference(wide, {1}, {0});
    ExpectMatchesReference(wide, {}, {0, 1});
    EXPECT_EQ(DistinctCount(wide, {1, 0}), ReferenceDistinct(wide, {1, 0}));

    // 24 + 40 = exactly 64 bits: still packed.
    const Relation exact = RandomRelation(rng, {24, 40, 3}, rows);
    ASSERT_TRUE(exact.SortedPackedRows({0, 1}, words, widths));
    EXPECT_EQ(widths, (std::vector<int>{24, 40}));
    EXPECT_TRUE(std::is_sorted(words.begin(), words.end()));
    ExpectMatchesReference(exact, {0}, {1});
    ExpectMatchesReference(exact, {1}, {0});
    ExpectMatchesReference(exact, {}, {0, 1});
    EXPECT_FALSE(exact.SortedPackedRows({0, 1, 2}, words, widths));
    ExpectMatchesReference(exact, {2}, {0, 1});

    // One column holding 2^64-1 (64 bits) beside an all-zero column: V
    // takes all 64 bits while U is non-empty.
    Relation full = RandomRelation(rng, {64, 0}, rows);
    full.AddRow({~Value{0}, 0});
    ASSERT_TRUE(full.SortedPackedRows({1, 0}, words, widths));
    EXPECT_EQ(widths, (std::vector<int>{0, 64}));
    EXPECT_EQ(words.back(), ~Value{0});
    ExpectMatchesReference(full, {1}, {0});
    ExpectMatchesReference(full, {0}, {1});
    ExpectMatchesReference(full, {}, {0});
    EXPECT_EQ(DistinctCount(full, {0}), ReferenceDistinct(full, {0}));
  }
}

TEST(DegreeSequenceDifferential, Log2NormIsBitwisePerEntryFormula) {
  const uint64_t seed = DiffSeed();
  Rng rng(seed + 1);
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE("LPB_DIFF_SEED=" + std::to_string(seed) +
                 " trial=" + std::to_string(trial));
    // A few distinct degrees, up to ~10^11, each repeated in a long run.
    std::vector<uint64_t> raw;
    const int distinct = 1 + static_cast<int>(rng.Uniform(40));
    for (int i = 0; i < distinct; ++i) {
      const uint64_t degree = 1 + rng.Uniform(rng.Bernoulli(0.2)
                                                  ? uint64_t{100000000000}
                                                  : uint64_t{64});
      raw.insert(raw.end(), 1 + rng.Uniform(3000), degree);
    }
    const DegreeSequence d(raw);
    for (double p : kDiffNorms) {
      EXPECT_EQ(d.Log2NormP(p), PerEntryLog2Norm(d.degrees(), p)) << "p=" << p;
    }
  }
}

// Every U ⊆ cols with |U| <= 2, ∅ first: the empty U, the leading
// prefixes {cols[0]} and {cols[0], cols[1]}, and the rest, which do not
// lead. Pairs are listed in reverse column order, so U's order differs from
// its order in cols.
std::vector<std::vector<int>> SmallSubsets(const std::vector<int>& cols) {
  std::vector<std::vector<int>> out = {{}};
  for (size_t i = 0; i < cols.size(); ++i) out.push_back({cols[i]});
  for (size_t i = 0; i < cols.size(); ++i) {
    for (size_t j = i + 1; j < cols.size(); ++j) {
      out.push_back({cols[j], cols[i]});
    }
  }
  return out;
}

// One grouped call over every small U of `cols` against one brute-force
// reference per key, degrees exactly and norms bitwise.
void ExpectGroupedMatchesReference(const Relation& r,
                                   const std::vector<int>& cols) {
  const std::vector<std::vector<int>> u_sets = SmallSubsets(cols);
  const std::vector<DegreeSequence> got =
      ComputeDegreeSequences(r, cols, u_sets);
  ASSERT_EQ(got.size(), u_sets.size());
  for (size_t k = 0; k < u_sets.size(); ++k) {
    const std::vector<int>& u = u_sets[k];
    std::vector<int> v;
    for (int c : cols) {
      if (std::find(u.begin(), u.end(), c) == u.end()) v.push_back(c);
    }
    SCOPED_TRACE("key " + std::to_string(k));
    ASSERT_EQ(got[k].degrees(), ReferenceDegrees(r, u, v));
    for (double p : kDiffNorms) {
      EXPECT_EQ(got[k].Log2NormP(p), PerEntryLog2Norm(got[k].degrees(), p))
          << "p=" << p;
    }
  }
}

TEST(DegreeSequenceDifferential, GroupedKernelMatchesBruteForce) {
  const uint64_t seed = DiffSeed();
  Rng rng(seed + 2);
  constexpr int kWidths[] = {0, 1, 3, 8, 16, 24, 32, 40, 63, 64};
  constexpr size_t kRows[] = {0, 1, 2, 17, 255, 256, 257, 1000, 3000};
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("LPB_DIFF_SEED=" + std::to_string(seed) +
                 " trial=" + std::to_string(trial));
    const int arity = 1 + static_cast<int>(rng.Uniform(4));
    std::vector<int> widths(arity);
    for (int& w : widths) w = kWidths[rng.Uniform(std::size(kWidths))];
    const Relation r =
        RandomRelation(rng, widths, kRows[rng.Uniform(std::size(kRows))]);
    // A random order of a random non-empty subset of the columns.
    std::vector<int> cols(arity);
    for (int c = 0; c < arity; ++c) cols[c] = c;
    for (int c = arity - 1; c > 0; --c) {
      std::swap(cols[c], cols[rng.Uniform(c + 1)]);
    }
    cols.resize(1 + rng.Uniform(arity));
    ExpectGroupedMatchesReference(r, cols);
  }
}

TEST(DegreeSequenceDifferential, GroupedKernelPathsAndEdges) {
  Rng rng(DiffSeed() + 3);
  std::vector<uint64_t> words;
  std::vector<int> widths;

  // 3000 distinct rows, each twice, over a 3-bit column and a 24-bit one
  // whose 500 values each pair with 6 small ones. Sorted as (small, large),
  // U = {large} has 2^24 possible values, more than the distinct count:
  // the projected radix sort. Sorted as (large, small), U = {small} fits a
  // counting array. Each order's leading U takes the scan.
  Relation paths("P", {"small", "large"});
  for (Value i = 0; i < 3000; ++i) {
    const Value large = ((i % 500) * 2654435761u) & 0xFFFFFF;
    paths.AddRow({i % 7, large});
    paths.AddRow({i % 7, large});
  }
  paths.AddRow({0, Value{1} << 23});
  ExpectGroupedMatchesReference(paths, {0, 1});
  ExpectGroupedMatchesReference(paths, {1, 0});

  // 0 rows: every key is the empty sequence, whose norms are -inf.
  const Relation empty = RandomRelation(rng, {8, 3, 16}, 0);
  const std::vector<DegreeSequence> none =
      ComputeDegreeSequences(empty, {2, 0, 1}, SmallSubsets({2, 0, 1}));
  ASSERT_EQ(none.size(), 7u);
  for (const DegreeSequence& d : none) {
    EXPECT_TRUE(d.empty());
    for (double p : kDiffNorms) EXPECT_EQ(d.Log2NormP(p), -kInfNorm);
  }
  ExpectGroupedMatchesReference(empty, {2, 0, 1});

  for (size_t rows : {size_t{40}, size_t{2000}}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    // An all-zero (0-bit) column leading, inside and trailing the order,
    // with duplicate rows.
    const Relation zero = RandomRelation(rng, {0, 8, 5}, rows);
    ExpectGroupedMatchesReference(zero, {0, 1, 2});
    ExpectGroupedMatchesReference(zero, {1, 0, 2});
    ExpectGroupedMatchesReference(zero, {1, 2, 0});

    // A 64-bit column beside all-zero ones: exactly 64 packed bits, so V
    // or U can hold all of them.
    Relation full = RandomRelation(rng, {64, 0, 0}, rows);
    full.AddRow({~Value{0}, 0, 0});
    ASSERT_TRUE(full.SortedPackedRows({1, 0, 2}, words, widths));
    ExpectGroupedMatchesReference(full, {1, 0, 2});
    ExpectGroupedMatchesReference(full, {0, 1, 2});
    ExpectGroupedMatchesReference(full, {2, 1, 0});

    // 40 + 30 + 3 = 73 bits: the comparator fallback, for leading and
    // non-leading U alike.
    const Relation wide = RandomRelation(rng, {40, 30, 3}, rows);
    EXPECT_FALSE(wide.SortedPackedRows({0, 1, 2}, words, widths));
    ExpectGroupedMatchesReference(wide, {0, 1, 2});
    ExpectGroupedMatchesReference(wide, {2, 1, 0});
  }
}

TEST(Catalog, AddGetHas) {
  Catalog c;
  c.Add(EdgeRelation());
  EXPECT_TRUE(c.Has("R"));
  EXPECT_FALSE(c.Has("S"));
  EXPECT_EQ(c.Get("R").NumRows(), 6u);
  EXPECT_EQ(c.size(), 1u);
}

TEST(Catalog, AddReplaces) {
  Catalog c;
  c.Add(EdgeRelation());
  Relation r2("R", {"X", "Y"});
  r2.AddRow({9, 9});
  c.Add(std::move(r2));
  EXPECT_EQ(c.Get("R").NumRows(), 1u);
}

TEST(Catalog, Names) {
  Catalog c;
  c.Add(Relation("B", {"x"}));
  c.Add(Relation("A", {"x"}));
  EXPECT_EQ(c.Names(), (std::vector<std::string>{"A", "B"}));
}

}  // namespace
}  // namespace lpb
