// Domain example: auditing how tight a bound is by *constructing* the
// worst-case database (Sec 6 of the paper).
//
// Given a query and a statistics profile (as a DBA might assert about a
// production workload), builds the normal database that actually attains
// the polymatroid bound — proving to the user that the bound cannot be
// improved without more statistics. Exits nonzero unless the database
// lands where Lemma 6.2 puts it: 2^{h* - c} <= |Q(D)| <= 2^{h*}, with c
// the number of nonzero step coefficients α*_W.
#include <cmath>
#include <cstdio>

#include "bounds/bound_engine.h"
#include "bounds/worst_case.h"
#include "entropy/relation_entropy.h"
#include "exec/generic_join.h"
#include "query/parser.h"

using namespace lpb;

namespace {

ConcreteStatistic Stat(const Query& q, const char* u, const char* v, double p,
                       double log_b) {
  ConcreteStatistic s;
  s.sigma.u = *u ? VarBit(q.VarIndex(u)) : 0;
  s.sigma.v = VarBit(q.VarIndex(v));
  s.p = p;
  s.log_b = log_b;
  return s;
}

}  // namespace

int main() {
  Query q = *ParseQuery("R(X,Y), S(Y,Z)");
  // Asserted statistics: both join-column degree sequences have
  // ||deg||_2 <= 2^5; projections onto Y have at most 2^7 values.
  std::vector<ConcreteStatistic> stats = {
      Stat(q, "Y", "X", 2.0, 5.0),
      Stat(q, "Y", "Z", 2.0, 5.0),
      Stat(q, "", "Y", 1.0, 7.0),
  };

  auto bound = ComputeBound("normal", q.num_vars(), stats);
  if (!bound.ok()) {
    std::fprintf(stderr, "the normal engine did not solve the bound LP\n");
    return 1;
  }
  std::printf("query: %s\n", q.ToString().c_str());
  std::printf("polymatroid bound: 2^%.2f = %.0f tuples\n",
              bound.log2_bound, std::exp2(bound.log2_bound));

  std::printf("optimal step-function decomposition h* = sum alpha_W h_W:\n");
  int steps = 0;  // c: the nonzero α*_W, each losing < 1 bit to rounding
  for (VarSet w = 1; w < (1u << q.num_vars()); ++w) {
    if (bound.alpha[w] > 1e-9) {
      ++steps;
      std::printf("  alpha{");
      for (int v : VarRange(w)) std::printf("%s", q.var_name(v).c_str());
      std::printf("} = %.3f\n", bound.alpha[w]);
    }
  }

  WorstCaseInstance wc = BuildWorstCaseDatabase(q, bound.alpha);
  std::printf("worst-case witness relation T: %zu rows, totally uniform: %s\n",
              wc.witness.NumRows(),
              IsTotallyUniform(wc.witness) ? "yes" : "no");
  for (const std::string& name : wc.database.Names()) {
    std::printf("  %s: %zu rows\n", name.c_str(),
                wc.database.Get(name).NumRows());
  }
  const uint64_t achieved = CountJoin(q, wc.database);
  const double log2_achieved = std::log2(static_cast<double>(achieved));
  std::printf("|Q(worst-case D)| = %llu  (2^%.2f of the 2^%.2f bound)\n",
              static_cast<unsigned long long>(achieved), log2_achieved,
              bound.log2_bound);
  if (!(log2_achieved >= bound.log2_bound - steps - 1e-6 &&
        log2_achieved <= bound.log2_bound + 1e-6)) {
    std::fprintf(stderr,
                 "Lemma 6.2 violated: expected 2^(%.2f - %d) <= |Q(D)| <= "
                 "2^%.2f\n",
                 bound.log2_bound, steps, bound.log2_bound);
    return 1;
  }
  std::printf("=> the bound is tight for these (simple) statistics; to "
              "tighten it, collect more norms.\n");
  return 0;
}
