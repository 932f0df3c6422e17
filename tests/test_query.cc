#include <gtest/gtest.h>

#include <string>

#include "query/hypergraph.h"
#include "query/parser.h"
#include "query/query.h"

namespace lpb {
namespace {

TEST(Query, AddAtomInternsVariables) {
  Query q;
  q.AddAtom("R", {"X", "Y"});
  q.AddAtom("S", {"Y", "Z"});
  EXPECT_EQ(q.num_vars(), 3);
  EXPECT_EQ(q.num_atoms(), 2);
  EXPECT_EQ(q.VarIndex("Y"), 1);
  EXPECT_EQ(q.VarIndex("W"), -1);
  EXPECT_EQ(q.atom(1).vars, (std::vector<int>{1, 2}));
}

TEST(Query, AllVarsAndAtomVarSet) {
  Query q;
  q.AddAtom("R", {"X", "Y"});
  q.AddAtom("S", {"Y", "Z"});
  EXPECT_EQ(q.AllVars(), 0b111u);
  EXPECT_EQ(q.atom(0).var_set(), 0b011u);
  EXPECT_EQ(q.atom(1).var_set(), 0b110u);
}

TEST(Query, RepeatedVariableInAtom) {
  Query q;
  q.AddAtom("R", {"X", "X"});
  EXPECT_EQ(q.num_vars(), 1);
  EXPECT_EQ(q.atom(0).vars, (std::vector<int>{0, 0}));
  EXPECT_EQ(q.atom(0).var_set(), 0b1u);
}

TEST(Query, ToStringRendersAtoms) {
  Query q;
  q.AddAtom("R", {"X", "Y"});
  q.AddAtom("S", {"Y", "Z"});
  EXPECT_EQ(q.ToString(), "R(X, Y), S(Y, Z)");
}

TEST(Parser, BodyOnly) {
  auto q = ParseQuery("R(X,Y), S(Y,Z)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->num_atoms(), 2);
  EXPECT_EQ(q->num_vars(), 3);
}

TEST(Parser, WithHead) {
  auto q = ParseQuery("Q(X, Y, Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->name(), "Q");
  EXPECT_EQ(q->num_vars(), 3);
  // Head order fixes variable ids.
  EXPECT_EQ(q->VarIndex("X"), 0);
  EXPECT_EQ(q->VarIndex("Z"), 2);
}

TEST(Parser, HeadMustCoverBody) {
  std::string error;
  auto q = ParseQuery("Q(X) :- R(X,Y)", &error);
  EXPECT_FALSE(q.has_value());
  EXPECT_NE(error.find("head"), std::string::npos);
}

TEST(Parser, RejectsHeadVariableMissingFromBody) {
  std::string error;
  EXPECT_FALSE(ParseQuery("Q(X,Y) :- R(X)", &error).has_value());
  EXPECT_NE(error.find("head"), std::string::npos);
}

// A chain query over `vars` variables: R0(V0,V1), R1(V1,V2), ...
std::string ChainQuery(int vars) {
  std::string text;
  for (int i = 0; i + 1 < vars; ++i) {
    if (i > 0) text += ", ";
    text += "R" + std::to_string(i) + "(V" + std::to_string(i) + ",V" +
            std::to_string(i + 1) + ")";
  }
  return text;
}

TEST(Parser, RejectsMoreThanMaxVarsVariables) {
  auto q = ParseQuery(ChainQuery(kMaxVars));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->num_vars(), kMaxVars);
  std::string error;
  EXPECT_FALSE(ParseQuery(ChainQuery(kMaxVars + 1), &error).has_value());
  EXPECT_NE(error.find("variables"), std::string::npos);
  // Past 32 variables a VarSet shift would overflow.
  EXPECT_FALSE(ParseQuery(ChainQuery(40)).has_value());
}

TEST(Parser, WhitespaceInsensitive) {
  auto q = ParseQuery("  R ( X , Y ) ,S(Y,Z)  .  ");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->num_atoms(), 2);
}

TEST(Parser, RejectsGarbage) {
  std::string error;
  EXPECT_FALSE(ParseQuery("R(X,Y) extra", &error).has_value());
  EXPECT_FALSE(ParseQuery("R(X,", &error).has_value());
  EXPECT_FALSE(ParseQuery("(X,Y)", &error).has_value());
  EXPECT_FALSE(ParseQuery("R()", &error).has_value());
  EXPECT_FALSE(ParseQuery("", &error).has_value());
}

TEST(Parser, SelfJoinSameRelationTwice) {
  auto q = ParseQuery("R(X,Y), R(Y,Z)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->atom(0).relation, "R");
  EXPECT_EQ(q->atom(1).relation, "R");
  EXPECT_EQ(q->num_vars(), 3);
}

TEST(Parser, UnderscoreAndDigitsInIdentifiers) {
  auto q = ParseQuery("movie_info(M, IT1), info_type(IT1)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->atom(0).relation, "movie_info");
  EXPECT_EQ(q->VarIndex("IT1"), 1);
}

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.has_value()) << text;
  return *q;
}

TEST(Hypergraph, PathIsAlphaAcyclic) {
  Hypergraph h(Parse("R(X,Y), S(Y,Z), T(Z,W)"));
  EXPECT_TRUE(h.IsAlphaAcyclic());
  EXPECT_TRUE(h.IsBergeAcyclic());
  EXPECT_TRUE(h.IsConnected());
  EXPECT_EQ(h.BinaryGirth(), 0);
}

TEST(Hypergraph, TriangleIsCyclic) {
  Hypergraph h(Parse("R(X,Y), S(Y,Z), T(Z,X)"));
  EXPECT_FALSE(h.IsAlphaAcyclic());
  EXPECT_FALSE(h.IsBergeAcyclic());
  EXPECT_EQ(h.BinaryGirth(), 3);
}

TEST(Hypergraph, TriangleWithCoveringEdgeIsAlphaAcyclic) {
  // Example 6.7 / Appendix D: triangle plus covering atoms stays cyclic,
  // but a full ternary atom over {X,Y,Z} absorbs the triangle.
  Hypergraph h(Parse("U(X,Y,Z), R(X,Y), S(Y,Z), T(Z,X)"));
  EXPECT_TRUE(h.IsAlphaAcyclic());
  EXPECT_FALSE(h.IsBergeAcyclic());  // shared pairs create incidence cycles
}

TEST(Hypergraph, StarIsBergeAcyclic) {
  // A star hypergraph's incidence graph is a tree, hence Berge-acyclic.
  Hypergraph h(Parse("R(M,P), S(M,K), T(M,C)"));
  EXPECT_TRUE(h.IsAlphaAcyclic());
  EXPECT_TRUE(h.IsBergeAcyclic());
}

TEST(Hypergraph, DuplicateAtomsBreakBergeAcyclicity) {
  Hypergraph h(Parse("R(X,Y), S(X,Y)"));
  EXPECT_TRUE(h.IsAlphaAcyclic());
  EXPECT_FALSE(h.IsBergeAcyclic());
  EXPECT_EQ(h.BinaryGirth(), 2);  // parallel edges
}

TEST(Hypergraph, DisconnectedQuery) {
  Hypergraph h(Parse("R(X,Y), S(Z,W)"));
  EXPECT_FALSE(h.IsConnected());
  EXPECT_TRUE(h.IsAlphaAcyclic());
}

TEST(Hypergraph, CycleGirthMatchesLength) {
  for (int k = 3; k <= 6; ++k) {
    Query q;
    for (int i = 0; i < k; ++i) {
      q.AddAtom("R" + std::to_string(i),
                {"X" + std::to_string(i), "X" + std::to_string((i + 1) % k)});
    }
    Hypergraph h(q);
    EXPECT_EQ(h.BinaryGirth(), k) << "cycle length " << k;
    EXPECT_FALSE(h.IsAlphaAcyclic());
  }
}

TEST(Hypergraph, ChordShortensGirth) {
  // 5-cycle plus chord X0-X2 gives girth 3.
  Query q = Parse(
      "A(X0,X1), B(X1,X2), C(X2,X3), D(X3,X4), E(X4,X0), F(X0,X2)");
  Hypergraph h(q);
  EXPECT_EQ(h.BinaryGirth(), 3);
}

TEST(Hypergraph, LoomisWhitneyIsCyclic) {
  Hypergraph h(Parse("A(X,Y,Z), B(Y,Z,W), C(Z,W,X), D(W,X,Y)"));
  EXPECT_FALSE(h.IsAlphaAcyclic());
  EXPECT_EQ(h.BinaryGirth(), 0);  // no binary atoms
}

TEST(Hypergraph, JobStyleStarWithLookupsIsAcyclic) {
  Query q = Parse(
      "cast_info(M,P,R), movie_keyword(M,K), title(M,KT), name(P), "
      "keyword(K), role_type(R), kind_type(KT)");
  Hypergraph h(q);
  EXPECT_TRUE(h.IsAlphaAcyclic());
  EXPECT_TRUE(h.IsConnected());
}

}  // namespace
}  // namespace lpb
