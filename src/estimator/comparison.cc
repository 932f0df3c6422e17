#include "estimator/comparison.h"

#include <cmath>
#include <cstdio>

#include "bounds/agm.h"
#include "bounds/bound_engine.h"
#include "estimator/dsb.h"
#include "estimator/traditional.h"
#include "exec/generic_join.h"
#include "exec/yannakakis.h"
#include "stats/collector.h"

namespace lpb {
namespace {

// The single join variable of a two-atom query, or -1.
int SingleJoinVar(const Query& query) {
  if (query.num_atoms() != 2) return -1;
  const VarSet shared =
      query.atom(0).var_set() & query.atom(1).var_set();
  if (SetSize(shared) != 1) return -1;
  return LowestVar(shared);
}

int ColumnOfVar(const Atom& atom, int v) {
  for (size_t j = 0; j < atom.vars.size(); ++j) {
    if (atom.vars[j] == v) return static_cast<int>(j);
  }
  return -1;
}

}  // namespace

std::vector<EstimateReport> CompareEstimators(const Query& query,
                                              const Catalog& catalog,
                                              const ComparisonOptions& options) {
  std::vector<EstimateReport> out;

  if (options.include_truth) {
    std::optional<uint64_t> fast = CountAcyclic(query, catalog);
    const uint64_t truth = fast.has_value() ? *fast : CountJoin(query, catalog);
    out.push_back({"true", truth == 0
                               ? -std::numeric_limits<double>::infinity()
                               : std::log2(static_cast<double>(truth)),
                   false});
  }

  CollectorOptions copt;
  copt.norms = options.norms;
  auto stats = CollectStatistics(query, catalog, copt);
  const int n = query.num_vars();

  out.push_back(
      {"AGM {1}", AgmBound(query, catalog).log2_bound, true});
  out.push_back({"PANDA {1,inf}",
                 ComputeBound("panda", n, stats).log2_bound, true});
  out.push_back(
      {"lp-norm bound", ComputeBound("auto", n, stats).log2_bound, true});
  out.push_back(
      {"traditional", TraditionalEstimateLog2(query, catalog), false});

  const int jv = SingleJoinVar(query);
  if (jv >= 0) {
    const Atom& a0 = query.atom(0);
    const Atom& a1 = query.atom(1);
    const Relation& r0 = catalog.Get(a0.relation);
    const Relation& r1 = catalog.Get(a1.relation);
    auto other_cols = [](const Atom& atom, int key_col) {
      std::vector<int> cols;
      for (size_t j = 0; j < atom.vars.size(); ++j) {
        if (static_cast<int>(j) != key_col) cols.push_back(static_cast<int>(j));
      }
      return cols;
    };
    const int c0 = ColumnOfVar(a0, jv), c1 = ColumnOfVar(a1, jv);
    DegreeSequence d0 = ComputeDegreeSequence(r0, {c0}, other_cols(a0, c0));
    DegreeSequence d1 = ComputeDegreeSequence(r1, {c1}, other_cols(a1, c1));
    out.push_back({"DSB", SingleJoinDsbLog2(d0, d1), true});
  }
  return out;
}

std::string FormatComparison(const std::vector<EstimateReport>& reports) {
  std::string out;
  char buf[128];
  double truth = std::nan("");
  for (const auto& r : reports) {
    if (r.name == "true") truth = r.log2_value;
  }
  for (const auto& r : reports) {
    if (std::isnan(truth) || r.name == "true") {
      std::snprintf(buf, sizeof(buf), "%-16s 2^%-8.2f %s\n", r.name.c_str(),
                    r.log2_value, r.is_upper_bound ? "(bound)" : "");
    } else {
      std::snprintf(buf, sizeof(buf), "%-16s 2^%-8.2f %8.2fx truth %s\n",
                    r.name.c_str(), r.log2_value,
                    std::exp2(r.log2_value - truth),
                    r.is_upper_bound ? "(bound)" : "");
    }
    out += buf;
  }
  return out;
}

}  // namespace lpb
