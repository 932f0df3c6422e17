#include "optimizer/join_order.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "estimator/traditional.h"

namespace lpb {
namespace {

// Linear-space cardinality for the cost arithmetic, saturating well below
// double overflow so sums and products of plan costs stay finite even when
// a probe answers "cannot bound" (+infinity).
double SaturatingExp2(double log2) {
  if (!(log2 < 120.0)) return std::exp2(120.0);
  return std::exp2(std::max(log2, -120.0));
}

// Costs within this relative tolerance are ties. The LP's evaluation paths
// (witness, warm, cold) and refactorization schedules agree on bounds only
// to solver tolerance, so a strict `<` would let ulp noise pick different plans per
// path; eps-ties instead fall through to the tiebreak sum and then to
// enumeration order, both path-independent.
constexpr double kCostRelEps = 1e-5;

bool TolerantLess(double a, double b) {
  return a < b - kCostRelEps * std::max({std::abs(a), std::abs(b), 1.0});
}

// Strict weak ordering on (cost, tiebreak) with eps-ties.
bool Improves(double cost, double tiebreak, double best_cost,
              double best_tiebreak) {
  if (TolerantLess(cost, best_cost)) return true;
  if (TolerantLess(best_cost, cost)) return false;
  return TolerantLess(tiebreak, best_tiebreak);
}

VarSet AtomVars(const Query& query, int atom) {
  return query.atom(atom).var_set();
}

// Number of connected components of the query's join graph (atoms joined
// by a shared variable). Cross-product partitions are admissible only when
// this exceeds one — a connected query never needs them, and pruning them
// keeps the DP on connected subgraphs.
int JoinGraphComponents(const Query& query) {
  const int m = query.num_atoms();
  int components = 0;
  AtomSet seen = 0;
  for (int a = 0; a < m; ++a) {
    if (Contains(seen, a)) continue;
    ++components;
    AtomSet frontier = VarBit(a);
    VarSet vars = 0;
    while (frontier != 0) {
      seen |= frontier;
      for (int b : VarRange(frontier)) vars |= AtomVars(query, b);
      AtomSet next = 0;
      for (int b = 0; b < m; ++b) {
        if (!Contains(seen, b) && Intersects(AtomVars(query, b), vars)) {
          next |= VarBit(b);
        }
      }
      frontier = next;
    }
  }
  return components;
}

void AppendLeaves(const JoinPlan& plan, int node, std::vector<int>& out) {
  const JoinPlan::Node& n = plan.nodes[static_cast<size_t>(node)];
  if (n.IsLeaf()) {
    out.push_back(n.leaf_atom);
    return;
  }
  AppendLeaves(plan, n.left, out);
  AppendLeaves(plan, n.right, out);
}

void AppendNodeString(const JoinPlan& plan, int node, const Query& query,
                      std::string& out) {
  const JoinPlan::Node& n = plan.nodes[static_cast<size_t>(node)];
  if (n.IsLeaf()) {
    out += query.atom(n.leaf_atom).relation;
    return;
  }
  out += "(";
  AppendNodeString(plan, n.left, query, out);
  out += " ";
  if (n.cross_product) out += "x";
  out += JoinMethodName(n.method);
  out += " ";
  AppendNodeString(plan, n.right, query, out);
  out += ")";
}

}  // namespace

const char* JoinMethodName(JoinMethod method) {
  return method == JoinMethod::kHash ? "HJ" : "MJ";
}

Query InducedSubquery(const Query& query, AtomSet atoms) {
  Query sub(query.name() + "#" + std::to_string(atoms));
  for (int a : VarRange(atoms)) {
    std::vector<std::string> names;
    names.reserve(query.atom(a).vars.size());
    for (int v : query.atom(a).vars) names.push_back(query.var_name(v));
    sub.AddAtom(query.atom(a).relation, names);
  }
  return sub;
}

std::vector<int> JoinPlan::AtomOrder() const {
  std::vector<int> order;
  if (nodes.empty()) return order;
  order.reserve(nodes.size() / 2 + 1);
  AppendLeaves(*this, static_cast<int>(nodes.size()) - 1, order);
  return order;
}

double JoinPlan::PeakLog2Rows() const {
  if (nodes.empty()) return 0.0;
  // Join outputs are materialized accumulations; of the leaves, only the
  // driving (leftmost) one is accumulated — the others feed probes.
  double peak = -kInfNorm;
  for (const Node& node : nodes) {
    if (!node.IsLeaf()) peak = std::max(peak, node.log2_rows);
  }
  std::vector<int> order;
  AppendLeaves(*this, static_cast<int>(nodes.size()) - 1, order);
  for (const Node& node : nodes) {
    if (node.IsLeaf() && node.leaf_atom == order.front()) {
      peak = std::max(peak, node.log2_rows);
    }
  }
  return peak;
}

std::string JoinPlan::ToString(const Query& query) const {
  if (nodes.empty()) return "(empty)";
  std::string out;
  AppendNodeString(*this, static_cast<int>(nodes.size()) - 1, query, out);
  return out;
}

std::vector<double> TraditionalCardinalityModel::EstimateLog2Batch(
    const std::vector<Query>& probes) {
  std::vector<double> out;
  out.reserve(probes.size());
  for (const Query& probe : probes) {
    out.push_back(TraditionalEstimateLog2(probe, catalog_));
  }
  return out;
}

JoinOrderOptimizer::JoinOrderOptimizer(const Query& query,
                                       CardinalityModel& model,
                                       JoinOrderOptions options)
    : query_(query), model_(model), options_(options) {}

const JoinPlan& JoinOrderOptimizer::Optimize() {
  if (ran_) return plan_;
  ran_ = true;
  stats_.atoms = query_.num_atoms();
  if (query_.num_atoms() == 0) return plan_;
  if (query_.num_atoms() > kMaxAtoms) {
    RunGreedyFallback();
    return plan_;
  }
  Run();
  return plan_;
}

double JoinOrderOptimizer::JoinCost(const DpEntry& left, const DpEntry& right,
                                    double rows, JoinMethod& method) const {
  if (options_.objective == CostObjective::kPeakIntermediate) {
    // Bottleneck DP: the subplan's peak is the largest accumulation in
    // either child or the new output. In left-deep mode the right side is
    // always a single-atom projection feeding the probe — it is never an
    // accumulated intermediate (HashJoinStats::intermediate_sizes tracks
    // only the accumulator), so its scan does not count.
    method = JoinMethod::kHash;
    double peak = std::max(rows, left.cost);
    if (!(options_.left_deep && right.leaf_atom >= 0)) {
      peak = std::max(peak, right.cost);
    }
    return peak;
  }
  const double build = std::min(left.rows, right.rows);
  const double probe = std::max(left.rows, right.rows);
  const double hash = options_.hash_build_weight * build +
                      options_.hash_probe_weight * probe;
  const double merge =
      options_.sort_weight * (left.rows * std::log2(left.rows + 2.0) +
                              right.rows * std::log2(right.rows + 2.0));
  method = hash <= merge ? JoinMethod::kHash : JoinMethod::kMerge;
  return left.cost + right.cost + std::min(hash, merge) + rows;
}

void JoinOrderOptimizer::Run() {
  const int m = query_.num_atoms();
  const AtomSet full = FullSet(m);
  const bool allow_cross = JoinGraphComponents(query_) > 1;

  // Masks grouped by subset size — the DP levels.
  std::vector<std::vector<AtomSet>> by_size(static_cast<size_t>(m) + 1);
  for (AtomSet s = 1; s <= full; ++s) {
    by_size[static_cast<size_t>(SetSize(s))].push_back(s);
  }

  stats_.probes_per_level.assign(static_cast<size_t>(m), 0);

  for (int k = 1; k <= m; ++k) {
    // Pass 1: find this level's candidates — subsets with at least one
    // admissible decomposition into memoized halves (every singleton, and
    // beyond that exactly the connected subsets unless the query itself is
    // disconnected, where cross-product partitions become admissible).
    std::vector<AtomSet> candidates;
    std::vector<Query> probes;
    for (AtomSet s : by_size[static_cast<size_t>(k)]) {
      bool admissible = k == 1;
      if (k > 1) {
        const AtomSet low = VarBit(LowestVar(s));
        for (AtomSet left = (s - 1) & s; left != 0 && !admissible;
             left = (left - 1) & s) {
          if (!Intersects(left, low)) continue;  // canonical orientation
          const AtomSet right = s & ~left;
          if (options_.left_deep && SetSize(right) != 1 && SetSize(left) != 1) {
            continue;
          }
          auto lit = memo_.find(left);
          if (lit == memo_.end()) continue;
          auto rit = memo_.find(right);
          if (rit == memo_.end()) continue;
          admissible = Intersects(lit->second.vars, rit->second.vars) ||
                       allow_cross;
        }
      }
      if (!admissible) continue;
      candidates.push_back(s);
      probes.push_back(InducedSubquery(query_, s));
    }
    if (candidates.empty()) continue;

    // Pass 2: ONE model batch prices every candidate subplan of level k —
    // with the advisor model, one EstimateLog2Batch call whose
    // structure-sharing probes re-price as blocks.
    const std::vector<double> bounds = model_.EstimateLog2Batch(probes);
    ++stats_.dp_levels;
    ++stats_.batch_calls;
    stats_.probes += candidates.size();
    stats_.probes_per_level[static_cast<size_t>(k) - 1] = candidates.size();

    // Pass 3: pick each candidate's best decomposition.
    for (size_t c = 0; c < candidates.size(); ++c) {
      const AtomSet s = candidates[c];
      DpEntry entry;
      entry.atoms = s;
      entry.log2_rows = bounds[c];
      entry.rows = SaturatingExp2(bounds[c]);
      for (int a : VarRange(s)) entry.vars |= AtomVars(query_, a);
      if (k == 1) {
        entry.leaf_atom = LowestVar(s);
        entry.cost = entry.rows;  // scan
        entry.tiebreak = entry.rows;
        memo_.emplace(s, entry);
        continue;
      }
      bool found = false;
      const AtomSet low = VarBit(LowestVar(s));
      for (AtomSet left = (s - 1) & s; left != 0; left = (left - 1) & s) {
        // Each unordered partition once: the half holding the lowest atom
        // is canonically "left" (in left-deep mode the composite half
        // drives, so orientation is fixed by shape instead).
        if (!options_.left_deep && !Intersects(left, low)) continue;
        const AtomSet right = s & ~left;
        if (options_.left_deep && SetSize(right) != 1) continue;
        ++stats_.partitions_tried;
        auto lit = memo_.find(left);
        if (lit == memo_.end()) continue;
        auto rit = memo_.find(right);
        if (rit == memo_.end()) continue;
        ++stats_.memo_hits;
        const bool connected =
            Intersects(lit->second.vars, rit->second.vars);
        if (!connected) {
          if (!allow_cross) continue;
          ++stats_.cross_partitions;
        }
        JoinMethod method;
        const double cost =
            JoinCost(lit->second, rit->second, entry.rows, method);
        // Under the bottleneck objective the root bound often dominates
        // every decomposition, so cost alone ties across whole plan
        // families; the accumulated-intermediate sum orders those ties.
        const bool right_leaf_scan =
            options_.left_deep && rit->second.leaf_atom >= 0;
        const double tiebreak =
            options_.objective == CostObjective::kPeakIntermediate
                ? lit->second.tiebreak +
                      (right_leaf_scan ? 0.0 : rit->second.tiebreak) +
                      entry.rows
                : 0.0;
        if (!found || Improves(cost, tiebreak, entry.cost, entry.tiebreak)) {
          found = true;
          entry.cost = cost;
          entry.tiebreak = tiebreak;
          entry.left = left;
          entry.right = right;
          entry.method = method;
          entry.cross_product = !connected;
        }
      }
      assert(found);
      if (found) memo_.emplace(s, entry);
    }
  }
  stats_.memo_entries = memo_.size();

  // Extract the plan bottom-up from the full-set entry. The full set is
  // always memoized: connected queries reach it through connected
  // partitions, disconnected ones through cross products.
  assert(memo_.count(full) != 0);
  struct Emit {
    const std::map<AtomSet, DpEntry>& memo;
    JoinPlan& plan;
    int operator()(AtomSet s) const {
      const DpEntry& e = memo.at(s);
      JoinPlan::Node node;
      node.atoms = s;
      node.log2_rows = e.log2_rows;
      node.cost = e.cost;
      if (e.leaf_atom >= 0) {
        node.leaf_atom = e.leaf_atom;
      } else {
        node.left = (*this)(e.left);
        node.right = (*this)(e.right);
        node.method = e.method;
        node.cross_product = e.cross_product;
      }
      plan.nodes.push_back(node);
      return static_cast<int>(plan.nodes.size()) - 1;
    }
  };
  Emit{memo_, plan_}(full);
}

void JoinOrderOptimizer::RunGreedyFallback() {
  const std::vector<int> order = GreedyJoinOrder(query_, model_);
  // One batch prices every prefix for the plan annotations.
  std::vector<Query> probes;
  probes.reserve(order.size());
  AtomSet mask = 0;
  for (int a : order) {
    mask |= VarBit(a);
    probes.push_back(InducedSubquery(query_, mask));
  }
  const std::vector<double> bounds = model_.EstimateLog2Batch(probes);
  ++stats_.dp_levels;
  ++stats_.batch_calls;
  stats_.probes += bounds.size();

  DpEntry acc;
  acc.atoms = VarBit(order[0]);
  acc.vars = AtomVars(query_, order[0]);
  acc.log2_rows = bounds[0];
  acc.rows = SaturatingExp2(bounds[0]);
  acc.cost = acc.rows;
  acc.leaf_atom = order[0];
  JoinPlan::Node leaf;
  leaf.leaf_atom = order[0];
  leaf.atoms = acc.atoms;
  leaf.log2_rows = acc.log2_rows;
  leaf.cost = acc.cost;
  plan_.nodes.push_back(leaf);
  int left_index = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    const int a = order[i];
    DpEntry rhs;
    rhs.atoms = VarBit(a);
    rhs.vars = AtomVars(query_, a);
    rhs.leaf_atom = a;
    // The fallback skips singleton probes; the chain costs only need the
    // accumulated bounds, so leaf sizes borrow the catalog-free neutral 1.
    rhs.log2_rows = 0.0;
    rhs.rows = 1.0;
    rhs.cost = options_.objective == CostObjective::kPeakIntermediate
                   ? 0.0
                   : rhs.rows;
    JoinPlan::Node rleaf;
    rleaf.leaf_atom = a;
    rleaf.atoms = rhs.atoms;
    plan_.nodes.push_back(rleaf);
    const int right_index = static_cast<int>(plan_.nodes.size()) - 1;

    DpEntry next;
    next.atoms = acc.atoms | rhs.atoms;
    next.vars = acc.vars | rhs.vars;
    next.log2_rows = bounds[i];
    next.rows = SaturatingExp2(bounds[i]);
    JoinMethod method;
    next.cost = JoinCost(acc, rhs, next.rows, method);
    JoinPlan::Node join;
    join.left = left_index;
    join.right = right_index;
    join.atoms = next.atoms;
    join.log2_rows = next.log2_rows;
    join.cost = next.cost;
    join.method = method;
    join.cross_product = !Intersects(acc.vars, rhs.vars);
    plan_.nodes.push_back(join);
    left_index = static_cast<int>(plan_.nodes.size()) - 1;
    acc = next;
  }
}

std::vector<int> GreedyJoinOrder(const Query& query, CardinalityModel& model,
                                 int first_atom) {
  const int m = query.num_atoms();
  std::vector<int> order;
  if (m == 0) return order;
  std::vector<int> remaining(static_cast<size_t>(m));
  std::iota(remaining.begin(), remaining.end(), 0);

  int first = first_atom;
  if (first < 0) {
    // Seed with the min-bound atom — one batch of singleton probes.
    std::vector<Query> probes;
    probes.reserve(remaining.size());
    for (int a : remaining) {
      probes.push_back(InducedSubquery(query, VarBit(a)));
    }
    const std::vector<double> bounds = model.EstimateLog2Batch(probes);
    size_t best = 0;
    for (size_t k = 1; k < bounds.size(); ++k) {
      if (bounds[k] < bounds[best]) best = k;
    }
    first = remaining[best];
  }
  order.push_back(first);
  remaining.erase(std::find(remaining.begin(), remaining.end(), first));
  AtomSet prefix = VarBit(first);
  VarSet covered = query.atom(first).var_set();

  while (!remaining.empty()) {
    // Connected extensions keep the plan a join; when every remaining atom
    // is disconnected from the prefix (a disconnected query), ALL of them
    // become candidates and the min-bound one wins — the cheapest
    // disconnected extension, never an arbitrary remaining.front().
    std::vector<int> candidates;
    for (int a : remaining) {
      if (Intersects(query.atom(a).var_set(), covered)) candidates.push_back(a);
    }
    if (candidates.empty()) candidates = remaining;
    // All candidate extensions of this step, bounded in one batched call:
    // candidates share statistic structures, so the advisor-backed model
    // groups them and re-prices each group's values as one block.
    std::vector<Query> probes;
    probes.reserve(candidates.size());
    for (int a : candidates) {
      probes.push_back(InducedSubquery(query, prefix | VarBit(a)));
    }
    const std::vector<double> bounds = model.EstimateLog2Batch(probes);
    size_t best = 0;
    for (size_t k = 1; k < bounds.size(); ++k) {
      if (bounds[k] < bounds[best]) best = k;
    }
    const int chosen = candidates[best];
    order.push_back(chosen);
    remaining.erase(std::find(remaining.begin(), remaining.end(), chosen));
    prefix |= VarBit(chosen);
    covered |= query.atom(chosen).var_set();
  }
  return order;
}

}  // namespace lpb
