// Workload "churn": writes beside reads, single-threaded, on the JOB-like
// database at scale 1.0 (~594k rows) and its twin, generated from the next
// data seed; both are fixed, like plan's database. One op replaces one
// relation with its twin (std::swap through Catalog::GetMutable), calls
// Invalidate, and re-estimates every template that reads the relation with
// one EstimateLog2Batch. A round swaps each relation of the cycle once, in a
// fixed cyclic order whose starting point the seed picks; the refreshed
// estimates are checked against a fresh advisor at the end of every round,
// untimed.
//
// Why: it measures how fast estimates become fresh after a write. Almost
// all of an op is recomputing degree sequences (relation), so the LP,
// optimizer and service layers are bypassed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "relation/degree_sequence.h"
#include "shared.h"

namespace lpbench {
namespace {

using lpb::AdvisorMetrics;
using lpb::CardinalityAdvisor;
using lpb::Query;

constexpr double kScale = 1.0;
constexpr int kSetups = 9;
// Rounds whose ops form the latency sample, spread evenly over the
// measured window: 30 x 11 = 330 samples, so the tail is the 11th-largest
// op (p97.0) in every run.
constexpr int kLatencyRounds = 30;

// Every relation with more than one column, plus the one-column fact table
// aka_title and the largest dimension table, name. Eleven relations keep
// the median op inside one relation's group of samples instead of on the
// boundary between two.
const std::vector<std::string>& CycleRelations() {
  static const std::vector<std::string> relations = {
      "title",         "cast_info",  "movie_companies", "movie_keyword",
      "movie_info",    "movie_info_idx", "movie_link",  "complete_cast",
      "person_info",   "aka_title",  "name"};
  return relations;
}

struct Update {
  std::string relation;
  std::vector<Query> templates;   // every template reading the relation
  std::vector<size_t> template_ids;  // their indices in the template list
  // Degree-sequence keys (U columns, V columns) the advisor maintains for
  // this relation across those templates. Each traced op checks that the
  // advisor recomputed exactly this many, so the relation metrics keep
  // describing the advisor's work.
  std::vector<std::pair<std::vector<int>, std::vector<int>>> keys;
};

std::vector<Update> MakeUpdates(const std::vector<Query>& queries,
                                const std::vector<int>& order) {
  std::vector<Update> updates;
  for (const int r : order) {
    Update u;
    u.relation = CycleRelations()[r];
    std::set<std::pair<std::vector<int>, std::vector<int>>> keys;
    for (size_t t = 0; t < queries.size(); ++t) {
      const Query& q = queries[t];
      bool reads = false;
      for (const lpb::Atom& atom : q.atoms()) {
        if (atom.relation != u.relation) continue;
        reads = true;
        // The advisor's statistics of one atom, columns listed in variable
        // order: deg(all | {}) and, per variable, deg(rest | variable).
        std::vector<std::pair<int, int>> by_var;  // (variable, column)
        for (size_t c = 0; c < atom.vars.size(); ++c) {
          by_var.push_back({atom.vars[c], static_cast<int>(c)});
        }
        std::sort(by_var.begin(), by_var.end());
        std::vector<int> all;
        for (const auto& [var, col] : by_var) all.push_back(col);
        keys.insert({{}, all});
        if (all.size() < 2) continue;
        for (const int c : all) {
          std::vector<int> rest;
          for (const int o : all) {
            if (o != c) rest.push_back(o);
          }
          keys.insert({{c}, rest});
        }
      }
      if (reads) {
        u.templates.push_back(q);
        u.template_ids.push_back(t);
      }
    }
    u.keys.assign(keys.begin(), keys.end());
    updates.push_back(std::move(u));
  }
  return updates;
}

// Sums the counters SetAdvisorLayerMetrics reads over several windows.
void AddDelta(AdvisorMetrics& sum, const AdvisorMetrics& before,
              const AdvisorMetrics& after) {
  sum.estimates += after.estimates - before.estimates;
  sum.witness_hits += after.witness_hits - before.witness_hits;
  sum.warm_resolves += after.warm_resolves - before.warm_resolves;
  sum.cold_solves += after.cold_solves - before.cold_solves;
  sum.lp_pivots += after.lp_pivots - before.lp_pivots;
  sum.lp_refactorizations +=
      after.lp_refactorizations - before.lp_refactorizations;
  sum.norm_hits += after.norm_hits - before.norm_hits;
  sum.norm_misses += after.norm_misses - before.norm_misses;
  sum.compiled_hits += after.compiled_hits - before.compiled_hits;
  sum.compiled_misses += after.compiled_misses - before.compiled_misses;
}

struct State {
  lpb::JobWorkload base;   // the catalog the advisor reads
  lpb::JobWorkload twin;   // the other version of every relation
  std::vector<Update> updates;
  std::unique_ptr<CardinalityAdvisor> advisor;
  std::vector<int> swaps;  // per update, times swapped so far
  // A round swaps every relation of the cycle once, so after an even
  // number of rounds the catalog is the base database and after an odd
  // number it holds every twin. A fresh advisor's estimates depend only on
  // the catalog, so each state's are computed once, by a fresh advisor at
  // the end of the first round that reaches it.
  int rounds_done = 0;
  std::vector<double> fresh_estimates[2];
};

// Per-layer accumulation of a traced window.
struct LayerLog {
  AdvisorMetrics advisor;
  KernelCalls kernels{};
  double estimate_s = 0.0;  // inside the advisor's EstimateLog2Batch
  double recompute_s = 0.0;
  double rows = 0.0;
};

struct Window {
  int rounds = 0;
  uint64_t ops = 0;
  double seconds = 0.0;  // op time only: checks and replays excluded
  std::vector<double> round_rates;  // ops per second of op time, per round
  std::vector<double> latencies_ms;
};

// One round: every update once, then the untimed freshness check.
void Round(State& s, Tracer* tracer, Replayer* replayer, LayerLog* layers,
           uint64_t& next_op, Window& window, Report& report) {
  std::vector<bool> finite(s.updates.size(), true);
  const double seconds_before = window.seconds;
  for (size_t u = 0; u < s.updates.size(); ++u) {
    const Update& update = s.updates[u];
    const uint64_t op = next_op++;
    const AdvisorMetrics m0 = layers ? s.advisor->metrics() : AdvisorMetrics{};
    const KernelCalls k0 = layers ? ThreadKernelCalls() : KernelCalls{};
    const Clock::time_point t0 = Clock::now();
    std::vector<double> bounds;
    {
      SpanScope op_span(tracer, "op", op);
      {
        SpanScope span(tracer, "relation.swap", op);
        std::swap(*s.base.catalog.GetMutable(update.relation),
                  *s.twin.catalog.GetMutable(update.relation));
      }
      {
        SpanScope span(tracer, "estimator.invalidate", op);
        s.advisor->Invalidate(update.relation);
      }
      SpanScope span(tracer, "estimator.estimate", op);
      const Clock::time_point e0 = Clock::now();
      bounds = s.advisor->EstimateLog2Batch(update.templates);
      if (layers != nullptr) layers->estimate_s += SecondsSince(e0);
    }
    const double seconds = SecondsSince(t0);
    window.seconds += seconds;
    window.latencies_ms.push_back(seconds * 1e3);
    ++s.swaps[u];
    for (double b : bounds) finite[u] = finite[u] && std::isfinite(b);

    if (layers != nullptr) {
      const KernelCalls k1 = ThreadKernelCalls();
      for (size_t k = 0; k < k1.size(); ++k) {
        layers->kernels[k] += k1[k] - k0[k];
      }
      const AdvisorMetrics m1 = s.advisor->metrics();
      AddDelta(layers->advisor, m0, m1);
      if (m1.norm_misses - m0.norm_misses != update.keys.size()) {
        report.Fail("advisor recomputed " +
                    std::to_string(m1.norm_misses - m0.norm_misses) +
                    " degree sequences of " + update.relation +
                    ", the benchmark times " +
                    std::to_string(update.keys.size()));
      }
      // The relation layer, timed from outside: recompute every key the
      // update invalidated, the way the advisor does.
      SpanScope replay(tracer, "replay", op);
      const lpb::Relation& rel = s.base.catalog.Get(update.relation);
      const std::vector<double> norms = lpb::AdvisorOptions{}.norms;
      const Clock::time_point r0 = Clock::now();
      double sink = 0.0;
      for (const auto& [u_cols, v_cols] : update.keys) {
        const lpb::DegreeSequence deg =
            lpb::ComputeDegreeSequence(rel, u_cols, v_cols);
        for (double p : norms) sink += deg.Log2NormP(p);
      }
      layers->recompute_s += SecondsSince(r0);
      layers->rows += static_cast<double>(rel.NumRows());
      if (std::isnan(sink)) report.Fail("NaN norm in " + update.relation);
      replayer->Check(replayer->Run(update.templates, tracer, op), bounds,
                      report);
    }
  }
  window.ops += s.updates.size();
  window.round_rates.push_back(static_cast<double>(s.updates.size()) /
                               (window.seconds - seconds_before));
  ++window.rounds;

  // Freshness: the advisor that took the updates must agree with one that
  // never saw the old data.
  const std::vector<double> refreshed =
      s.advisor->EstimateLog2Batch(s.base.queries);
  std::vector<double>& want = s.fresh_estimates[++s.rounds_done % 2];
  if (want.empty()) {
    CardinalityAdvisor fresh(s.base.catalog);
    want = fresh.EstimateLog2Batch(s.base.queries);
  }
  std::vector<bool> stale(s.base.queries.size(), false);
  for (size_t i = 0; i < want.size(); ++i) {
    stale[i] = !(std::abs(refreshed[i] - want[i]) <=
                 1e-8 * std::max(1.0, std::abs(want[i])));
  }
  for (size_t u = 0; u < s.updates.size(); ++u) {
    bool ok = finite[u];
    for (size_t t : s.updates[u].template_ids) ok = ok && !stale[t];
    ++report.attempted;
    if (!ok) {
      ++report.failed;
      report.Fail("stale or non-finite estimate after updating " +
                  s.updates[u].relation);
    }
  }
}

Window Measure(State& s, uint64_t& next_op, double seconds, int min_rounds,
               Report& report) {
  Window w;
  do {
    Round(s, nullptr, nullptr, nullptr, next_op, w, report);
  } while (w.seconds < seconds || w.rounds < min_rounds);
  return w;
}

double ColdSetup(State& s, Report& report) {
  s.advisor.reset();
  const Clock::time_point t0 = Clock::now();
  s.advisor = std::make_unique<CardinalityAdvisor>(s.base.catalog);
  const std::vector<double> bounds = s.advisor->EstimateLog2Batch(s.base.queries);
  const double seconds = SecondsSince(t0);
  for (double b : bounds) {
    if (!std::isfinite(b)) report.Fail("set-up estimate is not finite");
  }
  return seconds;
}

}  // namespace

void RunChurn(const Args& args, Report& report) {
  const double scale = args.tiny ? kJobScale : kScale;
  State s;
  s.base = MakeJob(scale, DefaultDataSeed());
  s.twin = MakeJob(scale, DefaultDataSeed() + 1);
  s.updates = MakeUpdates(s.base.queries,
                          RotatedOrder(CycleRelations().size(), args.seed));
  s.swaps.assign(s.updates.size(), 0);
  const int setups = args.tiny || args.trace ? 1 : kSetups;
  const int min_rounds = args.tiny ? 1 : kLatencyRounds;

  std::vector<double> setup_s;
  for (int r = 0; r < setups; ++r) setup_s.push_back(ColdSetup(s, report));
  uint64_t next_op = 0;
  {
    Window discard;  // warm-up round: checked, not timed
    Report warmup;
    Round(s, nullptr, nullptr, nullptr, next_op, discard, warmup);
    if (!warmup.correct) report.Fail("warm-up round served stale estimates");
  }

  if (args.trace) {
    const Clock::time_point epoch = Clock::now();
    Tracer tracer(epoch);
    // The replayer compiles and cold-solves every structure up front
    // (structures depend on the templates, not the data), so every traced
    // op is timed warm.
    Replayer replayer(*s.advisor);
    for (const Update& update : s.updates) {
      replayer.Run(update.templates, nullptr, 0);
    }
    replayer.StartTiming();
    // Untraced and traced rounds alternate, so the overhead baseline sees
    // the same machine as the traced rounds.
    LayerLog layers;
    Window plain, w;
    do {
      Round(s, nullptr, nullptr, nullptr, next_op, plain, report);
      Round(s, &tracer, &replayer, &layers, next_op, w, report);
    } while (plain.seconds + w.seconds < args.seconds);
    const double ops = static_cast<double>(w.ops);
    const double probes = static_cast<double>(layers.advisor.estimates);
    report.Set("estimator.call_ms", layers.estimate_s * 1e3 / ops, "ms/op");
    SetAdvisorLayerMetrics(report, AdvisorMetrics{}, layers.advisor, ops,
                           s.advisor->CompiledCacheSize());
    SetKernelMetrics(report, KernelCalls{}, layers.kernels, probes);
    report.Set("relation.recompute_ms", layers.recompute_s * 1e3 / ops,
               "ms/update");
    report.Set("relation.rows_per_update", layers.rows / ops, "rows");
    report.Set("trace.overhead_frac",
               1.0 - (ops / w.seconds) /
                         (static_cast<double>(plain.ops) / plain.seconds),
               "frac");
    replayer.SetMetrics(report);
    // The advisor's estimate call is the recompute the benchmark timed plus
    // the replayed assemble, group and evaluate.
    SetLayerCoverage(report, layers.recompute_s + replayer.LayerSeconds(),
                     layers.estimate_s);
    std::printf("# trace spans=%s\n", WriteSpans(args, {&tracer}).c_str());
    return;
  }

  const Window w = Measure(s, next_op, args.seconds, min_rounds, report);
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  const size_t per_round = s.updates.size();
  const size_t rounds = static_cast<size_t>(w.rounds);
  const size_t picked = std::min<size_t>(rounds, kLatencyRounds);
  std::vector<double> sample;
  for (size_t k = 0; k < picked; ++k) {
    const auto first = w.latencies_ms.begin() +
                       static_cast<long>(k * rounds / picked * per_round);
    sample.insert(sample.end(), first, first + per_round);
  }
  const Tail tail = TailOf(sample);
  std::printf("# latency samples=%zu tail_percentile=%.2f rounds=%d\n",
              tail.samples, tail.percentile, w.rounds);
  report.Set("setup_s", Median(setup_s), "s");
  report.Set("ops_per_s", Median(w.round_rates), "1/s");
  report.Set("p50_ms", Median(sample), "ms");
  report.Set("tail_ms", tail.value, "ms");

  // Fixed catalog states for the quality figures: put every relation back
  // to its generated version, then score the base database and its twin
  // with fresh advisors.
  for (size_t u = 0; u < s.updates.size(); ++u) {
    if (s.swaps[u] % 2 == 1) {
      std::swap(*s.base.catalog.GetMutable(s.updates[u].relation),
                *s.twin.catalog.GetMutable(s.updates[u].relation));
    }
  }
  s.advisor.reset();
  double gap_sum = 0.0;
  uint64_t peak_rows = 0;
  for (const lpb::JobWorkload* db : {&s.base, &s.twin}) {
    const std::vector<uint64_t> truth =
        TrueCounts(db->queries, db->catalog, report);
    CardinalityAdvisor fresh(db->catalog);
    gap_sum += BoundGapLog2(fresh, db->queries, truth, report);
    if (db == &s.base) {
      peak_rows = PlanPeakRows(fresh, db->catalog, db->queries, truth, report);
    }
  }
  std::printf("# deterministic plan_peak_rows=%llu bound_gap_log2=%.9f\n",
              static_cast<unsigned long long>(peak_rows), gap_sum / 2);
  report.Set("bound_gap_log2", gap_sum / 2, "log2");
  report.Set("plan_peak_rows", static_cast<double>(peak_rows), "rows");
}

}  // namespace lpbench
