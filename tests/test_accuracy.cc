// The paper's accuracy experiments (Appendix C, Figure 1) as one
// table-driven regime. Every row — a workload, a query, a catalog builder
// and a norm set — runs through CompareEstimators, which computes the true
// output size, AGM, PANDA, the ℓp bound, the traditional estimate and,
// for single joins, the DSB. The test holds every row to
//   * soundness (Theorem 1.1): every upper bound is >= log2 |Q(D)|;
//   * the bound hierarchy ℓp <= PANDA <= AGM — PANDA sees a subset of the
//     ℓp bound's statistics ({1,∞}), AGM a subset of PANDA's ({1});
// and each workload's median, p90 and max of log2(ℓp bound / truth) to a
// ceiling. It prints one line per row and a per-workload summary, so
// `./build/test_accuracy` is the paper-table reproduction.
//
// All data comes from the in-tree generators at fixed seeds, so every value
// is deterministic; the ceilings are the measured values rounded up at the
// second decimal and move only when a bound really gets looser.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bounds/bound_engine.h"
#include "bounds/worst_case.h"
#include "datagen/alpha_beta.h"
#include "datagen/graph_gen.h"
#include "datagen/job_gen.h"
#include "estimator/comparison.h"
#include "query/parser.h"

namespace lpb {
namespace {

constexpr double kSoundnessSlack = 1e-9;
constexpr double kOrderSlack = 1e-6;

// The names CompareEstimators reports under.
const char* const kTruth = "true";
const char* const kAgm = "AGM {1}";
const char* const kPanda = "PANDA {1,inf}";
const char* const kLp = "lp-norm bound";
const char* const kEstimators[] = {kLp, kPanda, kAgm, "traditional", "DSB"};

// Ceilings on log2(ℓp bound / truth) over a workload's rows with a nonzero
// truth; +inf where the workload has no such rows.
struct Ceiling {
  double median = kInfNorm;
  double p90 = kInfNorm;
  double max = kInfNorm;
};

const std::map<std::string, Ceiling>& Ceilings() {
  static const std::map<std::string, Ceiling> ceilings = {
      {"job", {1.33, 2.50, 3.15}},
      {"triangle", {4.65, 6.32, 6.32}},
      {"onejoin", {0.00, 0.01, 0.01}},
      {"cycle", {1.01, 1.15, 1.15}},
      {"dsb_gap", {0.74, 1.36, 1.36}},
      {"ablation", {2.31, 8.03, 8.03}},
      {"worst_case", {0.00, 0.00, 0.00}},
      {"empty", {}},
  };
  return ceilings;
}

// A catalog builder. Rows that share a database share one builder, which
// builds on first use and keeps the catalog for the later rows.
using CatalogBuilder = std::function<const Catalog&()>;

CatalogBuilder Memoized(std::function<Catalog()> build) {
  auto cache = std::make_shared<std::optional<Catalog>>();
  return [cache, build = std::move(build)]() -> const Catalog& {
    if (!cache->has_value()) cache->emplace(build());
    return **cache;
  };
}

struct Row {
  std::string workload;
  std::string name;
  Query query;
  CatalogBuilder catalog;
  std::vector<double> norms;
};

Query Parse(const std::string& text) {
  std::optional<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.has_value()) << text;
  return q.value_or(Query());
}

// {1, 2, ..., max_p, ∞}.
std::vector<double> NormsUpTo(int max_p) {
  std::vector<double> norms;
  for (int p = 1; p <= max_p; ++p) norms.push_back(p);
  norms.push_back(kInfNorm);
  return norms;
}

std::string NormSetName(const std::vector<double>& norms) {
  std::string out = "{";
  for (double p : norms) {
    if (out.size() > 1) out += ",";
    out += p >= kInfNorm ? "inf" : std::to_string(static_cast<int>(p));
  }
  return out + "}";
}

// The SNAP stand-ins, with the large graphs scaled down (nodes and edges
// by the same factor, so the average degree and the skew stay) to keep
// the triangle counts cheap.
constexpr uint64_t kMaxGraphEdges = 10000;

CatalogBuilder GraphCatalog(GraphSpec spec) {
  if (spec.num_edges > kMaxGraphEdges) {
    const double f = static_cast<double>(kMaxGraphEdges) /
                     static_cast<double>(spec.num_edges);
    spec.num_nodes = static_cast<uint64_t>(spec.num_nodes * f);
    spec.num_edges = kMaxGraphEdges;
  }
  return Memoized([spec] {
    Catalog db;
    Relation g = GeneratePowerLawGraph(spec);
    g.set_name("E");
    db.Add(std::move(g));
    return db;
  });
}

// The Example 2.3 cycle: R(X0,X1), R(X1,X2), ..., R(Xk-1,X0).
Query CycleQuery(int k) {
  Query q("cycle" + std::to_string(k));
  for (int i = 0; i < k; ++i) {
    q.AddAtom("R", {"X" + std::to_string(i),
                    "X" + std::to_string((i + 1) % k)});
  }
  return q;
}

// Example 6.7's statistics: |R_i| <= B via the unary guards S_i, and
// ||deg(Y|X)||_4^4 <= B around the triangle (Eq. 40), in log2.
std::vector<ConcreteStatistic> Example67Stats(double log_b) {
  auto stat = [](VarSet u, VarSet v, double p, double value) {
    ConcreteStatistic s;
    s.sigma = {u, v};
    s.p = p;
    s.log_b = value;
    return s;
  };
  return {stat(0, 0b001, 1.0, log_b),
          stat(0, 0b010, 1.0, log_b),
          stat(0, 0b100, 1.0, log_b),
          stat(0b001, 0b010, 4.0, log_b / 4),
          stat(0b010, 0b100, 4.0, log_b / 4),
          stat(0b100, 0b001, 4.0, log_b / 4)};
}

std::vector<Row> BuildTable() {
  std::vector<Row> rows;

  // Figure 1: the 33 JOB templates on the synthetic IMDB stand-in.
  const CatalogBuilder job = Memoized([] {
    JobWorkloadOptions options;
    options.scale = 0.05;
    return GenerateJobWorkload(options).catalog;
  });
  const std::vector<std::string> job_texts = JobQueryTexts();
  for (size_t i = 0; i < job_texts.size(); ++i) {
    Query q = Parse(job_texts[i]);
    q.set_name("q" + std::to_string(i + 1));
    rows.push_back({"job", q.name(), q, job, NormsUpTo(30)});
  }

  // Appendix C.1: triangle and one-join on the SNAP stand-ins.
  const Query triangle = Parse("E(X,Y), E(Y,Z), E(Z,X)");
  const Query one_join = Parse("E(X,Y), E(Y,Z)");
  std::vector<CatalogBuilder> graphs;
  for (const GraphSpec& spec : SnapStandInSpecs()) {
    graphs.push_back(GraphCatalog(spec));
    rows.push_back({"triangle", spec.name, triangle, graphs.back(),
                    NormsUpTo(15)});
    rows.push_back({"onejoin", spec.name, one_join, graphs.back(),
                    NormsUpTo(2)});
  }

  // Example 2.3 / Appendix C.5: the (p+1)-cycle on the
  // (1/(p+1), 1/(p+1))-relation, where ℓp is the norm that matters.
  // |R| = base^(p+1) <= 2^16 keeps the cyclic join count cheap.
  const uint64_t cycle_base[] = {16, 16, 8, 6};
  for (int p = 2; p <= 5; ++p) {
    const int k = p + 1;
    uint64_t m = 1;
    for (int i = 0; i < k; ++i) m *= cycle_base[p - 2];
    rows.push_back({"cycle", "p=" + std::to_string(p), CycleQuery(k),
                    Memoized([m, k] {
                      Catalog db;
                      db.Add(AlphaBetaRelation("R", m, 1.0 / k, 1.0 / k));
                      return db;
                    }),
                    NormsUpTo(p)});
  }

  // Appendix C.3: R = (0,1/3), S = (0,2/3), where the DSB is tight and the
  // ℓp bound sits Θ(M^{1/9}) above it.
  for (int e = 9; e <= 18; e += 3) {
    const uint64_t m = uint64_t{1} << e;
    rows.push_back({"dsb_gap", "M=2^" + std::to_string(e),
                    Parse("R(X,Y), S(Y,Z)"), Memoized([m] {
                      Catalog db;
                      db.Add(AlphaBetaRelation("R", m, 0.0, 1.0 / 3));
                      db.Add(AlphaBetaRelation("S", m, 0.0, 2.0 / 3));
                      return db;
                    }),
                    NormsUpTo(5)});
  }

  // Norm-set ablation: rows that differ only in the norm set. Dropping ℓ2
  // from the triangle's statistics costs a factor (App. C.1), and JOB q9
  // tightens as norms up to ℓ3 join in (the "norms used" of Figure 1).
  for (const std::vector<double>& norms :
       std::vector<std::vector<double>>{{1.0},
                                        {1.0, kInfNorm},
                                        {1.0, 2.0, kInfNorm},
                                        {1.0, 3.0, kInfNorm},
                                        {1.0, 4.0, kInfNorm},
                                        NormsUpTo(5)}) {
    rows.push_back({"ablation", "triangle/ca_GrQc " + NormSetName(norms),
                    triangle, graphs.front(), norms});
  }
  const Query q9 = rows[8].query;
  for (int max_p = 1; max_p <= 8; ++max_p) {
    std::vector<double> norms = NormsUpTo(max_p);
    rows.push_back({"ablation", "job/q9 " + NormSetName(norms), q9, job,
                    norms});
  }

  // Example 6.7 / Lemma 6.2: the normal worst-case database built from the
  // normal engine's α*, on which the bound is tight.
  const Query example67 =
      Parse("R1(X,Y), R2(Y,Z), R3(Z,X), S1(X), S2(Y), S3(Z)");
  for (int log_b : {4, 8, 12}) {
    rows.push_back({"worst_case", "log2B=" + std::to_string(log_b),
                    example67, Memoized([example67, log_b] {
                      const BoundResult bound =
                          ComputeBound("normal", example67.num_vars(),
                                       Example67Stats(log_b));
                      EXPECT_TRUE(bound.ok());
                      return BuildWorstCaseDatabase(example67, bound.alpha)
                          .database;
                    }),
                    {1.0, 4.0, kInfNorm}});
  }

  // Edge case: a zero-row relation. The truth is 0 (log2 -inf) and every
  // estimator must still answer without NaN.
  rows.push_back({"empty", "R(X,Y), S(Y,Z) with |S| = 0",
                  Parse("R(X,Y), S(Y,Z)"), Memoized([] {
                    Catalog db;
                    Relation r("R", {"a", "b"});
                    for (uint64_t i = 0; i < 16; ++i) r.AddRow({i, i % 4});
                    db.Add(std::move(r));
                    db.Add(Relation("S", {"b", "c"}));
                    return db;
                  }),
                  NormsUpTo(2)});
  return rows;
}

const std::vector<Row>& Table() {
  static const std::vector<Row> table = BuildTable();
  return table;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Row& row : Table()) {
    if (std::find(names.begin(), names.end(), row.workload) == names.end()) {
      names.push_back(row.workload);
    }
  }
  return names;
}

// Nearest-rank quantile of a non-empty sample.
double Quantile(std::vector<double> sample, double q) {
  std::sort(sample.begin(), sample.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * sample.size()));
  return sample[std::max<size_t>(rank, 1) - 1];
}

double Find(const std::vector<EstimateReport>& reports, const char* name) {
  for (const EstimateReport& r : reports) {
    if (r.name == name) return r.log2_value;
  }
  return std::nan("");
}

class Accuracy : public ::testing::TestWithParam<std::string> {};

TEST_P(Accuracy, SoundOrderedAndWithinCeilings) {
  const std::string& workload = GetParam();
  ASSERT_TRUE(Ceilings().count(workload)) << workload;
  const Ceiling& ceiling = Ceilings().at(workload);

  int violations = 0;
  // log2(estimate / truth) per estimator, over rows with a nonzero truth.
  std::map<std::string, std::vector<double>> ratios;
  for (const Row& row : Table()) {
    if (row.workload != workload) continue;
    ComparisonOptions options;
    options.norms = row.norms;
    const std::vector<EstimateReport> reports =
        CompareEstimators(row.query, row.catalog(), options);
    const double truth = Find(reports, kTruth);
    ASSERT_FALSE(std::isnan(truth)) << row.name;

    std::string line = "[" + workload + "] " + row.name + ": true 2^";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f", truth);
    line += buf;
    for (const EstimateReport& r : reports) {
      if (r.name == kTruth) continue;
      EXPECT_FALSE(std::isnan(r.log2_value)) << row.name << " " << r.name;
      // Soundness. A truth of -inf (an empty output) admits every bound
      // but NaN, which fails the comparison.
      if (r.is_upper_bound &&
          !(r.log2_value >= truth - kSoundnessSlack)) {
        ++violations;
        ADD_FAILURE() << "soundness violation: " << row.name << " " << r.name
                      << " 2^" << r.log2_value << " < true 2^" << truth;
      }
      if (std::isfinite(truth)) ratios[r.name].push_back(r.log2_value - truth);
      // log2(estimate / truth); with an empty output, the estimate's log2.
      if (std::isfinite(truth)) {
        std::snprintf(buf, sizeof(buf), "  %s %+.2f", r.name.c_str(),
                      r.log2_value - truth);
      } else {
        std::snprintf(buf, sizeof(buf), "  %s 2^%.2f", r.name.c_str(),
                      r.log2_value);
      }
      line += buf;
    }
    std::printf("%s\n", line.c_str());

    const double lp = Find(reports, kLp);
    const double panda = Find(reports, kPanda);
    const double agm = Find(reports, kAgm);
    EXPECT_LE(lp, panda + kOrderSlack) << row.name;
    EXPECT_LE(panda, agm + kOrderSlack) << row.name;
  }

  std::printf("[%s] summary, log2(estimate / truth) median / p90 / max:\n",
              workload.c_str());
  for (const char* name : kEstimators) {
    const auto it = ratios.find(name);
    if (it == ratios.end()) continue;
    std::printf("  %-14s %8.2f %8.2f %8.2f\n", name, Quantile(it->second, 0.5),
                Quantile(it->second, 0.9), Quantile(it->second, 1.0));
  }
  std::printf("  soundness violations: %d\n", violations);
  EXPECT_EQ(violations, 0);

  const auto lp = ratios.find(kLp);
  if (lp == ratios.end()) return;
  EXPECT_LE(Quantile(lp->second, 0.5), ceiling.median) << workload;
  EXPECT_LE(Quantile(lp->second, 0.9), ceiling.p90) << workload;
  EXPECT_LE(Quantile(lp->second, 1.0), ceiling.max) << workload;
}

INSTANTIATE_TEST_SUITE_P(PaperTables, Accuracy,
                         ::testing::ValuesIn(WorkloadNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace lpb
