// Synthetic graph generation with heavy-tailed (power-law) degree
// distributions — the stand-in for the SNAP datasets of Appendix C.1
// (see DESIGN.md, "Substitutions").
#ifndef LPB_DATAGEN_GRAPH_GEN_H_
#define LPB_DATAGEN_GRAPH_GEN_H_

#include <cstdint>
#include <string>

#include "relation/relation.h"

namespace lpb {

struct GraphSpec {
  std::string name = "graph";
  uint64_t num_nodes = 1000;
  uint64_t num_edges = 5000;
  // Zipf exponent of the endpoint sampler; larger = more skew. SNAP social
  // graphs are roughly in the 0.6 - 1.1 range.
  double zipf_theta = 0.9;
  // Mirror every edge (u,v) as (v,u), like an undirected SNAP graph stored
  // as a directed edge relation.
  bool symmetric = true;
  bool allow_self_loops = false;
  uint64_t seed = 42;
};

// Edge relation E(src, dst) with distinct edges; endpoints are sampled from
// a Zipf distribution over node ids, so node degrees are power-law
// distributed. The edge count is met exactly when enough distinct pairs
// exist (the generator retries duplicates up to a cap).
Relation GeneratePowerLawGraph(const GraphSpec& spec);

// The seven SNAP stand-ins of the triangle and one-join rows of
// tests/test_accuracy.cc (which scales the large ones down further), sized
// and skewed to mimic (scaled-down versions of) the paper's datasets:
// ca-GrQc, ca-HepTh, facebook, soc-Epinions, soc-LiveJournal, soc-pokec,
// twitter.
std::vector<GraphSpec> SnapStandInSpecs();

}  // namespace lpb

#endif  // LPB_DATAGEN_GRAPH_GEN_H_
