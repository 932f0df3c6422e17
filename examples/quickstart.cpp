// Quickstart: build a tiny database, parse a join query, collect ℓp-norm
// statistics, and compute pessimistic cardinality bounds.
//
//   $ ./quickstart
//
// Walks through the whole public API surface in ~60 lines of user code.
#include <cmath>
#include <cstdio>

#include "bounds/agm.h"
#include "bounds/bound_engine.h"
#include "estimator/traditional.h"
#include "exec/generic_join.h"
#include "query/parser.h"
#include "relation/catalog.h"
#include "stats/collector.h"

using namespace lpb;

int main() {
  // 1. A database: two binary relations with a skewed join column.
  Catalog db;
  Relation follows("follows", {"user", "celeb"});
  for (Value u = 0; u < 50; ++u) follows.AddRow({u, 0});  // everyone -> 0
  for (Value u = 0; u < 20; ++u) follows.AddRow({u, 1 + u % 5});
  db.Add(std::move(follows));

  Relation posts("posts", {"celeb", "post"});
  for (Value p = 0; p < 40; ++p) posts.AddRow({0, p});  // celeb 0 posts a lot
  for (Value p = 0; p < 10; ++p) posts.AddRow({1 + p % 5, 100 + p});
  db.Add(std::move(posts));

  // 2. A join query: the feed = follows ⋈ posts.
  Query q = *ParseQuery("Q(U, C, P) :- follows(U, C), posts(C, P)");
  std::printf("query: %s\n", q.ToString().c_str());

  // 3. Ground truth (worst-case-optimal join).
  const uint64_t truth = CountJoin(q, db);
  std::printf("true output size: %llu\n",
              static_cast<unsigned long long>(truth));

  // 4. Collect ℓp-norm statistics on the join columns.
  CollectorOptions opt;
  opt.norms = {1.0, 2.0, 3.0, kInfNorm};
  auto stats = CollectStatistics(q, db, opt);
  std::printf("collected %zu statistics, e.g.:\n  %s\n", stats.size(),
              stats[1].label.c_str());

  // 5. Bounds: AGM ({1}), PANDA ({1,inf}), and the full lp-norm bound.
  auto agm = ComputeBound("agm", q.num_vars(), stats);
  auto panda = ComputeBound("panda", q.num_vars(), stats);
  auto ours = ComputeBound("auto", q.num_vars(), stats);
  std::printf("AGM   {1}      bound: %.1f\n", std::exp2(agm.log2_bound));
  std::printf("PANDA {1,inf}  bound: %.1f\n", std::exp2(panda.log2_bound));
  std::printf("ours  {1..3,inf} bound: %.1f\n", std::exp2(ours.log2_bound));

  // 6. The witness inequality: which statistics the optimum used.
  std::printf("certificate weights (inequality (8) of the paper):\n");
  for (size_t i = 0; i < stats.size(); ++i) {
    if (ours.weights[i] > 1e-6) {
      std::printf("  w = %.3f on %s\n", ours.weights[i],
                  stats[i].label.c_str());
    }
  }

  // 7. A traditional (System-R style) estimate, for contrast: it can
  // underestimate, the bounds never do.
  std::printf("traditional estimate: %.1f (true %llu — bounds are sound, "
              "estimates are not)\n",
              TraditionalEstimate(q, db),
              static_cast<unsigned long long>(truth));
  return 0;
}
