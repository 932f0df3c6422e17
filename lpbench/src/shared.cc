#include "shared.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "exec/hash_join.h"
#include "exec/yannakakis.h"
#include "lp/kernels.h"

namespace lpbench {

using lpb::AdvisorMetrics;
using lpb::CardinalityAdvisor;
using lpb::Catalog;
using lpb::Query;

lpb::JobWorkload MakeJob(double scale, uint64_t data_seed) {
  lpb::JobWorkloadOptions options;
  options.scale = scale;
  options.seed = data_seed;
  return lpb::GenerateJobWorkload(options);
}

uint64_t DefaultDataSeed() { return lpb::JobWorkloadOptions{}.seed; }

std::vector<int> RotatedOrder(size_t n, uint64_t seed) {
  std::vector<int> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<int>((i + seed) % n);
  return order;
}

lpb::JoinOrderOptions PlanOptions() {
  lpb::JoinOrderOptions options;
  options.left_deep = true;
  options.objective = lpb::CostObjective::kPeakIntermediate;
  return options;
}

bool PlanIsValid(const lpb::JoinPlan& plan, const Query& query) {
  if (plan.empty() || !std::isfinite(plan.cost())) return false;
  std::vector<int> order = plan.AtomOrder();
  if (static_cast<int>(order.size()) != query.num_atoms()) return false;
  std::sort(order.begin(), order.end());
  for (int i = 0; i < query.num_atoms(); ++i) {
    if (order[i] != i) return false;
  }
  return true;
}

std::vector<uint64_t> TrueCounts(const std::vector<Query>& queries,
                                 const Catalog& catalog, Report& report) {
  std::vector<uint64_t> truth(queries.size(), 0);
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::optional<uint64_t> count =
        lpb::CountAcyclic(queries[i], catalog);
    if (!count) {
      report.Fail("no true count for " + queries[i].name());
      continue;
    }
    truth[i] = *count;
  }
  return truth;
}

double BoundGapLog2(CardinalityAdvisor& advisor,
                    const std::vector<Query>& queries,
                    const std::vector<uint64_t>& truth, Report& report) {
  double sum = 0.0;
  int counted = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const double bound = advisor.EstimateLog2(queries[i]);
    if (!std::isfinite(bound)) {
      report.Fail("non-finite bound for " + queries[i].name());
      continue;
    }
    if (truth[i] == 0) continue;  // any bound is sound; no ratio
    const double exact = std::log2(static_cast<double>(truth[i]));
    if (bound < exact - 1e-9) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "unsound bound for %s: %.12g < %.12g",
                    queries[i].name().c_str(), bound, exact);
      report.Fail(buf);
    }
    sum += bound - exact;
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / counted;
}

uint64_t PlanPeakRows(CardinalityAdvisor& advisor, const Catalog& catalog,
                      const std::vector<Query>& queries,
                      const std::vector<uint64_t>& truth, Report& report) {
  lpb::AdvisorCardinalityModel model(advisor);
  uint64_t sum = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    if (q.num_atoms() > 8) continue;  // keep the executed joins affordable
    lpb::JoinOrderOptimizer dp(q, model, PlanOptions());
    const lpb::JoinPlan& plan = dp.Optimize();
    if (!PlanIsValid(plan, q)) {
      report.Fail("invalid plan for " + q.name());
      continue;
    }
    const lpb::HashJoinStats run =
        lpb::CountByHashJoin(q, catalog, plan.AtomOrder());
    if (!run.ok || run.output_count != truth[i]) {
      report.Fail("executed plan of " + q.name() + " miscounts");
      continue;
    }
    uint64_t peak = 0;
    for (uint64_t rows : run.intermediate_sizes) peak = std::max(peak, rows);
    sum += peak;
  }
  return sum;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void SetAdvisorLayerMetrics(Report& report, const AdvisorMetrics& before,
                            const AdvisorMetrics& after, double ops,
                            size_t compiled_structures) {
  const double estimates =
      static_cast<double>(after.estimates - before.estimates);
  const double witness =
      static_cast<double>(after.witness_hits - before.witness_hits);
  const double warm =
      static_cast<double>(after.warm_resolves - before.warm_resolves);
  const double cold =
      static_cast<double>(after.cold_solves - before.cold_solves);
  const double paths = witness + warm + cold;
  report.Set("bounds.witness_frac", Ratio(witness, paths), "frac");
  report.Set("bounds.warm_frac", Ratio(warm, paths), "frac");
  report.Set("bounds.cold_frac", Ratio(cold, paths), "frac");
  report.Set("lp.pivots_per_probe",
             Ratio(static_cast<double>(after.lp_pivots - before.lp_pivots),
                   estimates),
             "count/probe");
  report.Set("lp.refactorizations_per_probe",
             Ratio(static_cast<double>(after.lp_refactorizations -
                                       before.lp_refactorizations),
                   estimates),
             "count/probe");
  const double hits = static_cast<double>(after.norm_hits - before.norm_hits);
  const double misses =
      static_cast<double>(after.norm_misses - before.norm_misses);
  report.Set("estimator.norm_hit_rate", Ratio(hits, hits + misses), "frac");
  report.Set("estimator.norm_misses", Ratio(misses, ops), "count/op");
  const double chits =
      static_cast<double>(after.compiled_hits - before.compiled_hits);
  const double cmisses =
      static_cast<double>(after.compiled_misses - before.compiled_misses);
  report.Set("estimator.compiled_hit_rate", Ratio(chits, chits + cmisses),
             "frac");
  report.Set("estimator.compiled_structures",
             static_cast<double>(compiled_structures), "count");
}

void SetLayerCoverage(Report& report, double layer_s, double served_s) {
  const double coverage = Ratio(layer_s, served_s);
  report.Set("trace.layer_coverage", coverage, "frac");
  if (!(coverage >= kMinLayerCoverage)) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "layers account for %.3f of the advisor's time, below %.2f",
                  coverage, kMinLayerCoverage);
    report.Fail(buf);
  }
}

KernelCalls ThreadKernelCalls() {
  KernelCalls calls{};
  for (int k = 0; k < lpb::kNumLpKernels; ++k) {
    calls[k] = lpb::g_lp_kernel_counters.calls[k];
  }
  return calls;
}

void SetKernelMetrics(Report& report, const KernelCalls& before,
                      const KernelCalls& after, double probes) {
  for (int k = 0; k < lpb::kNumLpKernels; ++k) {
    report.Set(std::string("lp.kernel_calls.") +
                   lpb::LpKernelName(static_cast<lpb::LpKernelId>(k)),
               Ratio(static_cast<double>(after[k] - before[k]), probes),
               "count/probe");
  }
}

std::vector<double> Replayer::Run(const std::vector<Query>& probes,
                                  Tracer* tracer, uint64_t op) {
  const Clock::time_point t0 = Clock::now();
  std::vector<std::vector<lpb::ConcreteStatistic>> stats;
  {
    SpanScope span(tracer, "estimator.assemble", op);
    stats = statistics_.AssembleStatisticsBatch(probes);
  }
  const Clock::time_point t1 = Clock::now();

  struct Group {
    lpb::BoundStructure structure;
    std::string key;
    std::vector<size_t> indices;
    std::vector<std::vector<double>> values;
  };
  std::vector<Group> groups;
  {
    SpanScope span(tracer, "estimator.group", op);
    std::map<std::string, size_t> group_of;
    for (size_t i = 0; i < probes.size(); ++i) {
      lpb::BoundStructure structure =
          lpb::StructureOf(probes[i].num_vars(), stats[i]);
      std::string key = lpb::StructureKey(structure);
      auto [it, inserted] = group_of.emplace(key, groups.size());
      if (inserted) {
        groups.push_back(Group{std::move(structure), std::move(key), {}, {}});
      }
      groups[it->second].indices.push_back(i);
      groups[it->second].values.push_back(lpb::ValuesOf(stats[i]));
    }
  }
  const Clock::time_point t2 = Clock::now();

  std::vector<double> out(probes.size(), 0.0);
  double evaluate_s = 0.0;
  for (const Group& group : groups) {
    auto it = compiled_.find(group.key);
    std::vector<lpb::BoundResult> results;
    if (it == compiled_.end()) {
      // New structure: compile, then the first evaluation (its cold solve
      // plus the rest of the group), and the heap both leave behind.
      const double heap0 = HeapInUseBytes();
      const Clock::time_point c0 = Clock::now();
      std::unique_ptr<lpb::CompiledBound> bound;
      {
        SpanScope span(tracer, "bounds.compile", op);
        bound = lpb::FindBoundEngine("auto")->Compile(group.structure);
      }
      const Clock::time_point c1 = Clock::now();
      {
        SpanScope span(tracer, "bounds.evaluate", op);
        results = bound->EvaluateBatch(group.values);
      }
      const Clock::time_point c2 = Clock::now();
      compile_s_ += std::chrono::duration<double>(c1 - c0).count();
      first_eval_s_ += std::chrono::duration<double>(c2 - c1).count();
      compile_heap_bytes_ += HeapInUseBytes() - heap0;
      compiled_.emplace(group.key, std::move(bound));
      evaluate_s += std::chrono::duration<double>(c2 - c0).count();
    } else {
      const Clock::time_point e0 = Clock::now();
      {
        SpanScope span(tracer, "bounds.evaluate", op);
        results = it->second->EvaluateBatch(group.values);
      }
      evaluate_s += SecondsSince(e0);
    }
    for (size_t k = 0; k < results.size(); ++k) {
      out[group.indices[k]] = results[k].log2_bound;
    }
  }
  if (timing_) {
    assemble_s_ += std::chrono::duration<double>(t1 - t0).count();
    group_s_ += std::chrono::duration<double>(t2 - t1).count();
    evaluate_s_ += evaluate_s;
    probes_ += probes.size();
    groups_ += groups.size();
  }
  return out;
}

void Replayer::Check(const std::vector<double>& replayed,
                     const std::vector<double>& served, Report& report) {
  for (size_t i = 0; i < replayed.size(); ++i) {
    if (replayed[i] == served[i]) continue;  // also equal infinities
    const double diff = std::abs(replayed[i] - served[i]);
    if (!(diff <= 1e-9)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "replayed bound %.17g differs from served %.17g",
                    replayed[i], served[i]);
      report.Fail(buf);
      max_diff_ = std::numeric_limits<double>::infinity();
      return;
    }
    max_diff_ = std::max(max_diff_, diff);
  }
}

void Replayer::SetMetrics(Report& report) const {
  const double probes = static_cast<double>(probes_);
  const double structures = static_cast<double>(compiled_.size());
  report.Set("estimator.assemble_us", Ratio(assemble_s_ * 1e6, probes),
             "us/probe");
  report.Set("estimator.group_us", Ratio(group_s_ * 1e6, probes), "us/probe");
  report.Set("estimator.probes_per_group",
             Ratio(probes, static_cast<double>(groups_)), "count");
  report.Set("bounds.evaluate_us", Ratio(evaluate_s_ * 1e6, probes),
             "us/probe");
  report.Set("bounds.compile_ms", Ratio(compile_s_ * 1e3, structures),
             "ms/structure");
  report.Set("bounds.cold_solve_ms", Ratio(first_eval_s_ * 1e3, structures),
             "ms/structure");
  report.Set("bounds.rss_kb_per_structure",
             Ratio(compile_heap_bytes_ / 1024.0, structures), "kB/structure");
  std::printf("# replay structures=%zu probes=%llu max_abs_diff=%.3g\n",
              compiled_.size(), static_cast<unsigned long long>(probes_),
              max_diff_);
}

}  // namespace lpbench
