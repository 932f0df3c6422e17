#include <gtest/gtest.h>

#include <cmath>

#include "datagen/alpha_beta.h"
#include "datagen/degree_realize.h"
#include "datagen/graph_gen.h"
#include "datagen/job_gen.h"
#include "query/hypergraph.h"
#include "relation/degree_sequence.h"

namespace lpb {
namespace {

TEST(GraphGen, RespectsEdgeCountAndSymmetry) {
  GraphSpec spec;
  spec.num_nodes = 500;
  spec.num_edges = 2000;
  spec.symmetric = true;
  Relation g = GeneratePowerLawGraph(spec);
  EXPECT_EQ(g.NumRows(), 4000u);  // both orientations
  // Symmetric: deg(dst|src) == deg(src|dst) as multisets.
  DegreeSequence out = ComputeDegreeSequence(g, {0}, {1});
  DegreeSequence in = ComputeDegreeSequence(g, {1}, {0});
  EXPECT_EQ(out.degrees(), in.degrees());
}

TEST(GraphGen, NoSelfLoopsByDefault) {
  GraphSpec spec;
  spec.num_nodes = 200;
  spec.num_edges = 800;
  Relation g = GeneratePowerLawGraph(spec);
  for (size_t i = 0; i < g.NumRows(); ++i) {
    EXPECT_NE(g.At(i, 0), g.At(i, 1));
  }
}

TEST(GraphGen, DeterministicPerSeed) {
  GraphSpec spec;
  spec.num_nodes = 300;
  spec.num_edges = 900;
  Relation a = GeneratePowerLawGraph(spec);
  Relation b = GeneratePowerLawGraph(spec);
  ASSERT_EQ(a.NumRows(), b.NumRows());
  for (size_t i = 0; i < a.NumRows(); ++i) {
    EXPECT_EQ(a.At(i, 0), b.At(i, 0));
    EXPECT_EQ(a.At(i, 1), b.At(i, 1));
  }
}

TEST(GraphGen, SkewProducesHeavyTail) {
  GraphSpec spec;
  spec.num_nodes = 2000;
  spec.num_edges = 10000;
  spec.zipf_theta = 0.9;
  Relation g = GeneratePowerLawGraph(spec);
  DegreeSequence d = ComputeDegreeSequence(g, {0}, {1});
  const double avg =
      static_cast<double>(d.Total()) / static_cast<double>(d.size());
  EXPECT_GT(static_cast<double>(d.MaxDegree()), 8.0 * avg);
}

TEST(GraphGen, SnapStandInsAreWellFormed) {
  auto specs = SnapStandInSpecs();
  ASSERT_EQ(specs.size(), 7u);
  EXPECT_EQ(specs[0].name, "ca_GrQc");
  for (const auto& s : specs) {
    EXPECT_GT(s.num_edges, s.num_nodes / 2);
  }
}

TEST(AlphaBeta, DegreeSequencesMatchDefinitionC1) {
  // α = β = 1/3, M = 729: M^α = 9 hubs of degree 9, rest degree 1.
  const uint64_t m = 729;
  Relation r = AlphaBetaRelation("R", m, 1.0 / 3, 1.0 / 3);
  for (auto cols : {std::pair<int, int>{0, 1}, std::pair<int, int>{1, 0}}) {
    DegreeSequence d = ComputeDegreeSequence(r, {cols.first}, {cols.second});
    ASSERT_GE(d.size(), 9u);
    for (int i = 0; i < 9; ++i) EXPECT_EQ(d.degrees()[i], 9u);
    for (size_t i = 9; i < d.size(); ++i) EXPECT_EQ(d.degrees()[i], 1u);
  }
  // |R| ≈ M.
  EXPECT_NEAR(static_cast<double>(r.NumRows()), static_cast<double>(m),
              static_cast<double>(m) * 0.05);
}

TEST(AlphaBeta, AlphaZeroSingleHub) {
  // (0, 2/3)-relation: one hub of degree M^{2/3}.
  const uint64_t m = 1000;
  Relation r = AlphaBetaRelation("S", m, 0.0, 2.0 / 3);
  DegreeSequence d = ComputeDegreeSequence(r, {0}, {1});
  EXPECT_EQ(d.MaxDegree(), 100u);
  EXPECT_EQ(d.degrees()[1], 1u);
}

TEST(AlphaBeta, NormsFollowTheClosedForms) {
  // Appendix C.5: ||deg||_q^q ≈ M for q <= p on the (1/(p+1), 1/(p+1))
  // instance (up to the integer rounding of M^α).
  const int p = 3;
  const uint64_t m = 4096;  // 8^4: M^{1/4} = 8 exactly
  Relation r = AlphaBetaRelation("R", m, 0.25, 0.25);
  DegreeSequence d = ComputeDegreeSequence(r, {0}, {1});
  // ||deg||_q^q = M^α·M^{qβ} + (M - 2M^{α+β}) = Θ(M) for q <= p, within a
  // factor of 2 (hence 1 in log2).
  for (int q = 1; q <= p; ++q) {
    const double norm_q_q = q * d.Log2NormP(q);
    EXPECT_NEAR(norm_q_q, std::log2(static_cast<double>(m)), 1.05)
        << "q=" << q;
  }
  EXPECT_EQ(d.MaxDegree(), 8u);  // M^{1/(p+1)}
}

TEST(DegreeRealize, FreshPartnersExactSequence) {
  std::vector<uint64_t> degrees = {5, 3, 3, 1};
  Relation r = RealizeDegreeSequence("R", degrees, PartnerMode::kFresh);
  DegreeSequence d = ComputeDegreeSequence(r, {0}, {1});
  EXPECT_EQ(d.degrees(), (std::vector<uint64_t>{5, 3, 3, 1}));
  DegreeSequence other = ComputeDegreeSequence(r, {1}, {0});
  EXPECT_EQ(other.MaxDegree(), 1u);
}

TEST(DegreeRealize, SharedPoolBoundsRightSide) {
  std::vector<uint64_t> degrees = {4, 4, 4};
  Relation r =
      RealizeDegreeSequence("R", degrees, PartnerMode::kSharedPool, 4);
  DegreeSequence d = ComputeDegreeSequence(r, {0}, {1});
  EXPECT_EQ(d.degrees(), (std::vector<uint64_t>{4, 4, 4}));
  EXPECT_EQ(DistinctCount(r, {1}), 4u);  // only 4 right values exist
}

TEST(JobGen, WorkloadShape) {
  JobWorkloadOptions opt;
  opt.scale = 0.05;  // keep the test fast
  JobWorkload wl = GenerateJobWorkload(opt);
  EXPECT_EQ(wl.queries.size(), 33u);
  EXPECT_TRUE(wl.catalog.Has("title"));
  EXPECT_TRUE(wl.catalog.Has("cast_info"));
  EXPECT_TRUE(wl.catalog.Has("comp_cast_type"));
}

TEST(JobGen, AllQueriesParseAcyclicAndCovered) {
  JobWorkloadOptions opt;
  opt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(opt);
  for (const Query& q : wl.queries) {
    EXPECT_GE(q.num_atoms(), 4) << q.name();
    EXPECT_LE(q.num_atoms(), 14) << q.name();
    EXPECT_LE(q.num_vars(), kMaxVars) << q.name();
    Hypergraph h(q);
    EXPECT_TRUE(h.IsAlphaAcyclic()) << q.name() << ": " << q.ToString();
    EXPECT_TRUE(h.IsConnected()) << q.name();
    // Every referenced relation exists and arities match.
    for (const Atom& atom : q.atoms()) {
      ASSERT_TRUE(wl.catalog.Has(atom.relation)) << atom.relation;
      EXPECT_EQ(wl.catalog.Get(atom.relation).arity(),
                static_cast<int>(atom.vars.size()))
          << q.name() << " " << atom.relation;
    }
  }
}

TEST(JobGen, TitleIsAKey) {
  JobWorkloadOptions opt;
  opt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(opt);
  const Relation& title = wl.catalog.Get("title");
  EXPECT_EQ(DistinctCount(title, {0}), title.NumRows());
  // So ||deg_title(kind|id)||_∞ = 1: the paper's key/FK observation.
  DegreeSequence d = ComputeDegreeSequence(title, {0}, {1});
  EXPECT_EQ(d.MaxDegree(), 1u);
}

TEST(JobGen, FactTablesAreSkewed) {
  JobWorkloadOptions opt;
  opt.scale = 0.25;
  JobWorkload wl = GenerateJobWorkload(opt);
  DegreeSequence d =
      ComputeDegreeSequence(wl.catalog.Get("cast_info"), {0}, {1, 2});
  const double avg =
      static_cast<double>(d.Total()) / static_cast<double>(d.size());
  EXPECT_GT(static_cast<double>(d.MaxDegree()), 3.0 * avg);
}

TEST(JobGen, QueryTextsStayInSync) {
  EXPECT_EQ(JobQueryTexts().size(), 33u);
}

}  // namespace
}  // namespace lpb
