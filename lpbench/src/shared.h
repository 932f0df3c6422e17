// Pieces the three workloads share: input generation, the correctness
// oracles (true counts, executed plans), per-layer metric assembly from
// the program's own counters, and the traced replay that splits an
// advisor batch into its layers.
#ifndef LPBENCH_SHARED_H_
#define LPBENCH_SHARED_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "bounds/bound_engine.h"
#include "datagen/job_gen.h"
#include "estimator/advisor.h"
#include "lp/simplex.h"
#include "optimizer/join_order.h"

namespace lpbench {

// The JOB-like database plan and serve run on. Its data seed is the
// generator's default and never changes with --seed: like JOB on its one
// IMDB snapshot, the database is fixed and the seed varies what is asked
// of it (template order, request stream). Per-template planning cost moves
// by up to 2x between data seeds, which would swamp any code change.
constexpr double kJobScale = 0.05;
lpb::JobWorkload MakeJob(double scale, uint64_t data_seed);
uint64_t DefaultDataSeed();

// The fixed cyclic order 0..n-1, started at position seed mod n. Ops that
// repeat in sweeps keep the same predecessor whatever the seed: templates
// share compiled structures, and each one's cost depends on the warm state
// its predecessor left (a full shuffle moved plan's p50 by 35% between
// seeds).
std::vector<int> RotatedOrder(size_t n, uint64_t seed);

// The optimizer configuration every workload plans with: left-deep DPsize
// under the peak-intermediate objective (the plans CountByHashJoin executes
// verbatim).
lpb::JoinOrderOptions PlanOptions();

// True when `plan` orders every atom of `query` exactly once at a finite
// cost.
bool PlanIsValid(const lpb::JoinPlan& plan, const lpb::Query& query);

// Exact output sizes of every query (CountAcyclic); a query the counter
// cannot handle fails the run.
std::vector<uint64_t> TrueCounts(const std::vector<lpb::Query>& queries,
                                 const lpb::Catalog& catalog, Report& report);

// Mean over the queries of log2(bound / true count), using the advisor's
// EstimateLog2. Any bound below its true count (or not finite) fails the
// run; queries with an empty result are left out of the mean.
double BoundGapLog2(lpb::CardinalityAdvisor& advisor,
                    const std::vector<lpb::Query>& queries,
                    const std::vector<uint64_t>& truth, Report& report);

// Plans every query of at most 8 atoms with the advisor-backed model,
// executes the plan with CountByHashJoin, checks its output against the
// true count, and sums the executed peak intermediates.
uint64_t PlanPeakRows(lpb::CardinalityAdvisor& advisor,
                      const lpb::Catalog& catalog,
                      const std::vector<lpb::Query>& queries,
                      const std::vector<uint64_t>& truth, Report& report);

// Sets the per-layer metrics derived from AdvisorMetrics deltas over a
// traced window in which `probes` estimates were requested over `ops` ops.
void SetAdvisorLayerMetrics(Report& report, const lpb::AdvisorMetrics& before,
                            const lpb::AdvisorMetrics& after, double ops,
                            size_t compiled_structures);

// Sets trace.layer_coverage: the layer times the benchmark measured from
// outside, over the advisor's own time for the same batches. A value below
// kMinLayerCoverage means the layer split misses part of the served work,
// and fails the run.
constexpr double kMinLayerCoverage = 0.9;
void SetLayerCoverage(Report& report, double layer_s, double served_s);

// This thread's LP kernel call counters.
using KernelCalls = std::array<unsigned long long, lpb::kNumLpKernels>;
KernelCalls ThreadKernelCalls();
void SetKernelMetrics(Report& report, const KernelCalls& before,
                      const KernelCalls& after, double probes);

// The benchmark's own copy of the advisor's estimate path, so each layer
// can be timed from outside: statistics through the advisor's public
// AssembleStatisticsBatch, grouping through StructureOf/StructureKey, and
// bounds the replayer compiles itself (FindBoundEngine("auto")->Compile,
// then EvaluateBatch per structure group, in first-appearance order like
// the advisor). Fed the batches an advisor served, it computes the same
// bounds, which Check() asserts.
class Replayer {
 public:
  explicit Replayer(lpb::CardinalityAdvisor& statistics)
      : statistics_(statistics) {}

  std::vector<double> Run(const std::vector<lpb::Query>& probes,
                          Tracer* tracer, uint64_t op);

  // Compares replayed bounds with what the advisor returned; a difference
  // above 1e-9 fails the run.
  void Check(const std::vector<double>& replayed,
             const std::vector<double>& served, Report& report);

  // Sets the estimator.assemble/group and bounds.evaluate/compile
  // metrics. Layer times accumulate only after StartTiming(), so a caller
  // can run a cold pass first and time the warm one.
  void SetMetrics(Report& report) const;
  void StartTiming() { timing_ = true; }
  // Timed assemble + group + evaluate seconds.
  double LayerSeconds() const {
    return assemble_s_ + group_s_ + evaluate_s_;
  }

 private:
  lpb::CardinalityAdvisor& statistics_;
  std::map<std::string, std::unique_ptr<lpb::CompiledBound>> compiled_;
  bool timing_ = false;
  // Cold pass: compile and first evaluation of each new structure, and the
  // heap those structures hold.
  double compile_s_ = 0.0;
  double first_eval_s_ = 0.0;
  double compile_heap_bytes_ = 0.0;
  // Timed pass.
  double assemble_s_ = 0.0;
  double group_s_ = 0.0;
  double evaluate_s_ = 0.0;
  uint64_t probes_ = 0;
  uint64_t groups_ = 0;
  double max_diff_ = 0.0;
};

}  // namespace lpbench

#endif  // LPBENCH_SHARED_H_
