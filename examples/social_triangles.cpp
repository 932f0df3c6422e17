// Domain example: triangle counting on a synthetic social network.
//
// A social-graph analytics job wants to budget memory for materializing all
// friendship triangles. Traditional estimators can be wildly off on skewed
// graphs; the ℓ2-norm bound (Eq. (4) of the paper) gives a sound and much
// tighter budget.
#include <cmath>
#include <cstdio>

#include "bounds/bound_engine.h"
#include "datagen/graph_gen.h"
#include "estimator/traditional.h"
#include "exec/generic_join.h"
#include "query/parser.h"
#include "stats/collector.h"

using namespace lpb;

int main() {
  GraphSpec spec;
  spec.name = "friends";
  spec.num_nodes = 20000;
  spec.num_edges = 90000;
  spec.zipf_theta = 0.85;  // a few hyper-connected users
  Catalog db;
  db.Add(GeneratePowerLawGraph(spec));

  Query q = *ParseQuery("friends(A,B), friends(B,C), friends(C,A)");
  std::printf("graph: %llu nodes, %zu directed edges\n",
              static_cast<unsigned long long>(spec.num_nodes),
              db.Get("friends").NumRows());

  const uint64_t triangles = CountJoin(q, db);
  std::printf("true (ordered) triangle count: %llu\n",
              static_cast<unsigned long long>(triangles));

  CollectorOptions opt;
  opt.norms = {1.0, 2.0, 3.0, 4.0, kInfNorm};
  auto stats = CollectStatistics(q, db, opt);

  auto agm = ComputeBound("agm", q.num_vars(), stats);
  auto panda = ComputeBound("panda", q.num_vars(), stats);
  auto ours = ComputeBound("auto", q.num_vars(), stats);
  const double trad = TraditionalEstimateLog2(q, db);

  auto show = [&](const char* name, double log2v) {
    std::printf("%-22s %14.0f   (%.1fx the truth)\n", name,
                std::exp2(log2v),
                std::exp2(log2v - std::log2(double(triangles))));
  };
  show("AGM {1} bound:", agm.log2_bound);
  show("PANDA {1,inf} bound:", panda.log2_bound);
  show("lp {1..4,inf} bound:", ours.log2_bound);
  show("traditional estimate:", trad);

  std::printf(
      "\nmemory budget at 24 bytes/triangle: %.1f MiB (lp bound) vs %.1f "
      "MiB (AGM)\n",
      std::exp2(ours.log2_bound) * 24 / (1024.0 * 1024.0),
      std::exp2(agm.log2_bound) * 24 / (1024.0 * 1024.0));
  return 0;
}
