// Workload "plan": a single-threaded optimizer planning every JOB template
// with the left-deep DPsize / peak-intermediate configuration over the
// advisor-backed cardinality model. One op is one template planned; a sweep
// plans all 33 in JOB order, starting at a template the seed picks.
//
// Why: join ordering is the paper's motivating use of the bound. Each
// sweep issues 9,995 probes in 284 advisor batches, which group into
// ~6,800 structure groups of ~1.5 probes, so evaluation of compiled bounds
// (bounds, lp) dominates and the service and relation layers are bypassed.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench.h"
#include "shared.h"

namespace lpbench {
namespace {

using lpb::AdvisorMetrics;
using lpb::CardinalityAdvisor;
using lpb::Query;

// Sweeps whose ops form the latency sample: 264 samples, so the tail is
// the 11th-largest op of the sample (p96.2) in every run.
constexpr int kLatencySweeps = 8;
// Cold set-ups timed per run; setup_s is their median. Each takes ~11 s,
// so two keep a run inside its time budget.
constexpr int kSetups = 2;

// The advisor-backed model with a span around each advisor batch and,
// while `capture` is on, a copy of every batch, its answers and the
// advisor's time, for the replay.
class TracingModel : public lpb::CardinalityModel {
 public:
  explicit TracingModel(CardinalityAdvisor& advisor) : advisor_(advisor) {}

  std::vector<double> EstimateLog2Batch(
      const std::vector<Query>& probes) override {
    std::vector<double> out;
    const Clock::time_point t0 = Clock::now();
    {
      SpanScope span(tracer, "estimator", op);
      out = advisor_.EstimateLog2Batch(probes);
    }
    if (capture) {
      captured_s += SecondsSince(t0);
      captured.push_back(probes);
      served.push_back(out);
    }
    return out;
  }

  Tracer* tracer = nullptr;
  uint64_t op = 0;
  bool capture = false;
  double captured_s = 0.0;
  std::vector<std::vector<Query>> captured;
  std::vector<std::vector<double>> served;

 private:
  CardinalityAdvisor& advisor_;
};

struct Window {
  int sweeps = 0;
  uint64_t ops = 0;
  double seconds = 0.0;
  uint64_t probes = 0;
  uint64_t batch_calls = 0;
  std::vector<double> sweep_rates;   // ops per second of each sweep
  std::vector<double> latencies_ms;  // first kLatencySweeps sweeps only
};

// Plans every template once in `order`. Op latencies go to `window` while
// it is still collecting its latency sample.
void Sweep(const lpb::JobWorkload& wl, const std::vector<int>& order,
           lpb::CardinalityModel& model, TracingModel* traced,
           Tracer* tracer, uint64_t& next_op, Window& window, Report& report) {
  const bool sample = window.sweeps < kLatencySweeps;
  for (const int t : order) {
    const Query& q = wl.queries[t];
    const uint64_t op = next_op++;
    if (traced != nullptr) traced->op = op;
    const Clock::time_point t0 = Clock::now();
    bool valid = false;
    {
      SpanScope op_span(tracer, "op", op);
      SpanScope span(tracer, "optimizer", op);
      lpb::JoinOrderOptimizer dp(q, model, PlanOptions());
      valid = PlanIsValid(dp.Optimize(), q);
      window.probes += dp.stats().probes;
      window.batch_calls += dp.stats().batch_calls;
    }
    if (sample) window.latencies_ms.push_back(SecondsSince(t0) * 1e3);
    ++report.attempted;
    if (!valid) {
      ++report.failed;
      report.Fail("invalid plan for " + q.name());
    }
  }
  ++window.sweeps;
  window.ops += order.size();
}

// Complete sweeps until `seconds` have passed and at least `min_sweeps`
// sweeps ran.
Window Measure(const lpb::JobWorkload& wl, const std::vector<int>& order,
               lpb::CardinalityModel& model, uint64_t& next_op,
               double seconds, int min_sweeps, Report& report) {
  Window window;
  const Clock::time_point t0 = Clock::now();
  do {
    const Clock::time_point s0 = Clock::now();
    Sweep(wl, order, model, nullptr, nullptr, next_op, window, report);
    window.sweep_rates.push_back(static_cast<double>(order.size()) /
                                 SecondsSince(s0));
    window.seconds = SecondsSince(t0);
  } while (window.seconds < seconds || window.sweeps < min_sweeps);
  return window;
}

// Cold planning: a new advisor, then one sweep that compiles and first
// solves every structure the DP probes. Returns the seconds it took.
double ColdSetup(const lpb::JobWorkload& wl, const std::vector<int>& order,
                 std::unique_ptr<CardinalityAdvisor>& advisor,
                 Report& report) {
  advisor.reset();  // the previous advisor's memory is gone before timing
  const Clock::time_point t0 = Clock::now();
  advisor = std::make_unique<CardinalityAdvisor>(wl.catalog);
  lpb::AdvisorCardinalityModel model(*advisor);
  for (const int t : order) {
    lpb::JoinOrderOptimizer dp(wl.queries[t], model, PlanOptions());
    if (!PlanIsValid(dp.Optimize(), wl.queries[t])) {
      report.Fail("invalid plan during set-up for " + wl.queries[t].name());
    }
  }
  return SecondsSince(t0);
}

}  // namespace

void RunPlan(const Args& args, Report& report) {
  const lpb::JobWorkload wl = MakeJob(kJobScale, DefaultDataSeed());
  const std::vector<int> order = RotatedOrder(wl.queries.size(), args.seed);
  const int setups = args.tiny || args.trace ? 1 : kSetups;
  const int min_sweeps = args.tiny ? 1 : kLatencySweeps;

  std::unique_ptr<CardinalityAdvisor> advisor;
  std::vector<double> setup_s;
  for (int r = 0; r < setups; ++r) {
    setup_s.push_back(ColdSetup(wl, order, advisor, report));
  }
  lpb::AdvisorCardinalityModel model(*advisor);
  uint64_t next_op = 0;
  Report warmup;  // the discarded warm-up sweep still checks its plans
  Window discard;
  Sweep(wl, order, model, nullptr, nullptr, next_op, discard, warmup);
  if (!warmup.correct) report.Fail("warm-up sweep planned invalid plans");

  const std::vector<uint64_t> truth = TrueCounts(wl.queries, wl.catalog,
                                                 report);

  if (!args.trace) {
    const Window w =
        Measure(wl, order, model, next_op, args.seconds, min_sweeps, report);
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    const double gap = BoundGapLog2(*advisor, wl.queries, truth, report);
    const uint64_t peak_rows =
        PlanPeakRows(*advisor, wl.catalog, wl.queries, truth, report);
    const Tail tail = TailOf(w.latencies_ms);
    std::printf("# latency samples=%zu tail_percentile=%.2f sweeps=%d\n",
                tail.samples, tail.percentile, w.sweeps);
    std::printf(
        "# deterministic probes_per_sweep=%llu batch_calls_per_sweep=%llu "
        "plan_peak_rows=%llu bound_gap_log2=%.9f\n",
        static_cast<unsigned long long>(w.probes / w.sweeps),
        static_cast<unsigned long long>(w.batch_calls / w.sweeps),
        static_cast<unsigned long long>(peak_rows), gap);
    report.Set("setup_s", Median(setup_s), "s");
    // The median sweep: one slow stretch of a shared machine moves one
    // sweep, not the figure.
    report.Set("ops_per_s", Median(w.sweep_rates), "1/s");
    report.Set("p50_ms", Median(w.latencies_ms), "ms");
    report.Set("tail_ms", tail.value, "ms");
    report.Set("bound_gap_log2", gap, "log2");
    report.Set("plan_peak_rows", static_cast<double>(peak_rows), "rows");
    return;
  }

  // Traced run: untraced and traced sweeps alternate, so the overhead
  // baseline sees the same machine as the traced sweeps. The counters
  // cover both kinds; every layer metric built on them is a ratio.
  const Clock::time_point epoch = Clock::now();
  Tracer tracer(epoch);
  TracingModel traced(*advisor);
  traced.tracer = &tracer;
  const AdvisorMetrics before = advisor->metrics();
  const KernelCalls kernels_before = ThreadKernelCalls();
  Window plain, w;
  do {
    Clock::time_point s0 = Clock::now();
    Sweep(wl, order, model, nullptr, nullptr, next_op, plain, report);
    plain.seconds += SecondsSince(s0);
    s0 = Clock::now();
    Sweep(wl, order, traced, &traced, &tracer, next_op, w, report);
    w.seconds += SecondsSince(s0);
  } while (plain.seconds + w.seconds < args.seconds);
  const KernelCalls kernels_after = ThreadKernelCalls();
  const AdvisorMetrics after = advisor->metrics();
  BoundGapLog2(*advisor, wl.queries, truth, report);  // soundness only

  const double ops = static_cast<double>(w.ops);
  const SpanTotals optimizer = TotalsOf({&tracer}, "optimizer");
  const SpanTotals estimator = TotalsOf({&tracer}, "estimator");
  report.Set("optimizer.self_ms", optimizer.self * 1e3 / ops, "ms/op");
  report.Set("optimizer.probes",
             static_cast<double>(w.probes) / w.sweeps, "count/sweep");
  report.Set("optimizer.batch_calls",
             static_cast<double>(w.batch_calls) / w.sweeps, "count/sweep");
  report.Set("estimator.call_ms", estimator.total * 1e3 / ops, "ms/op");
  SetAdvisorLayerMetrics(report, before, after,
                         static_cast<double>(plain.ops + w.ops),
                         advisor->CompiledCacheSize());
  SetKernelMetrics(report, kernels_before, kernels_after,
                   static_cast<double>(after.estimates - before.estimates));
  const double plain_rate = static_cast<double>(plain.ops) / plain.seconds;
  report.Set("trace.overhead_frac", 1.0 - (ops / w.seconds) / plain_rate,
             "frac");

  // The replay, through the benchmark's own copy of the estimate path.
  // Two more sweeps: the replayer compiles and cold-solves the batches of
  // the first (untimed), and times the batches of the second op by op,
  // right after the op. The replayer then sees the batches in the order
  // the advisor does, so both carry the same warm LP state from batch to
  // batch, and an op's advisor calls and their timed replay run seconds
  // apart, so a slow stretch of the machine hits both. Both sets of
  // compiled bounds are resident for this part (~2x plan's memory).
  Replayer replayer(*advisor);
  Tracer replay_tracer(epoch);
  traced.tracer = nullptr;
  traced.capture = true;
  Window replay_sweeps;
  Sweep(wl, order, traced, &traced, nullptr, next_op, replay_sweeps, report);
  for (size_t b = 0; b < traced.captured.size(); ++b) {
    replayer.Check(replayer.Run(traced.captured[b], nullptr, 0),
                   traced.served[b], report);
  }
  replayer.StartTiming();
  traced.captured_s = 0.0;
  for (const int t : order) {
    traced.captured.clear();
    traced.served.clear();
    const uint64_t op = next_op;
    Sweep(wl, {t}, traced, &traced, nullptr, next_op, replay_sweeps, report);
    for (size_t b = 0; b < traced.captured.size(); ++b) {
      SpanScope span(&replay_tracer, "replay", op);
      replayer.Check(replayer.Run(traced.captured[b], &replay_tracer, op),
                     traced.served[b], report);
    }
  }
  replayer.SetMetrics(report);
  SetLayerCoverage(report, replayer.LayerSeconds(), traced.captured_s);
  std::printf("# trace spans=%s peak_rss_mb=%.0f\n",
              WriteSpans(args, {&tracer, &replay_tracer}).c_str(),
              PeakRssMb());
}

}  // namespace lpbench
