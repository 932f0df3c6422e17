// Workload "serve": a closed loop of optimizer threads that block on
// their estimates. Two client threads each keep a window of 32 single
// estimates outstanding through AdvisorService::SubmitLog2 (shared_ptr
// form), served by one worker: three threads in all. One op is one
// request; a client round submits its window and waits for all of it.
//
// Requests are drawn Zipf(0.8) from the distinct connected sub-joins of
// the JOB templates with at most 9 atoms. Popularity ranks are a fixed
// shuffle of the sub-joins, and --seed picks each client's draws. With
// ~850 candidates, admission batches of ~64 requests hold few repeats
// (dedup ~1.2), so these numbers do not rest on request dedup the way a
// 33-template mix does.
//
// Why one worker: with two workers and two clients, throughput swung
// 16k-26k requests/s between 5-second windows of one process.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "serve/advisor_service.h"
#include "shared.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lpbench {
namespace {

using lpb::AdvisorMetrics;
using lpb::CardinalityAdvisor;
using lpb::Query;

constexpr int kClients = 2;
constexpr int kWindow = 32;      // outstanding requests per client
constexpr int kMaxAtoms = 9;     // sub-joins of templates up to this size
constexpr double kZipf = 0.8;
constexpr uint64_t kPopularitySeed = 0x5eed;  // fixed hot set
constexpr int kSetups = 9;
// Rounds per client whose requests form the latency sample, spread evenly
// over the measured window: 2 x 100 x 32 = 6,400 samples. The requests of
// one round complete in the same admission batch, so ten samples beyond
// the tail would all sit in one round; the tail keeps ten rounds (320
// requests) beyond it, p95. Deeper tails measured how often the shared
// machine stalled a thread: p99.5 of 64,000 samples and p98 of 16,000
// moved by a third between runs.
constexpr int kLatencyRounds = 100;
constexpr double kWarmupSeconds = 1.0;
// ops_per_s is the median completion rate over slices of this length.
constexpr double kSliceSeconds = 0.5;

// Structural identity, as the service's request dedup sees it: relation
// names and variable ids per atom.
std::string StructureText(const Query& q) {
  std::string text;
  for (const lpb::Atom& atom : q.atoms()) {
    text += atom.relation + "(";
    for (int v : atom.vars) text += std::to_string(v) + ",";
    text += ")";
  }
  return text;
}

// Connected sub-joins (atoms linked through shared variables) of every
// template with at most kMaxAtoms atoms, deduplicated structurally.
std::vector<Query> ConnectedSubjoins(const std::vector<Query>& templates) {
  std::vector<Query> out;
  std::map<std::string, size_t> seen;
  for (const Query& q : templates) {
    const int m = q.num_atoms();
    if (m > kMaxAtoms) continue;
    for (uint32_t mask = 1; mask < (1u << m); ++mask) {
      uint32_t reached = mask & (~mask + 1);  // lowest atom
      lpb::VarSet vars = q.atom(__builtin_ctz(mask)).var_set();
      for (bool grew = true; grew;) {
        grew = false;
        for (int a = 0; a < m; ++a) {
          const uint32_t bit = 1u << a;
          if ((mask & bit) && !(reached & bit) &&
              (q.atom(a).var_set() & vars)) {
            reached |= bit;
            vars |= q.atom(a).var_set();
            grew = true;
          }
        }
      }
      if (reached != mask) continue;
      Query sub = lpb::InducedSubquery(q, mask);
      if (seen.emplace(StructureText(sub), out.size()).second) {
        out.push_back(std::move(sub));
      }
    }
  }
  return out;
}

// A permutation of [0, n) drawn from `seed`.
std::vector<int> Shuffled(size_t n, uint64_t seed) {
  std::vector<int> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  lpb::Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  return order;
}

struct Inputs {
  std::vector<Query> subjoins;
  std::vector<std::shared_ptr<const Query>> shared;
  std::vector<std::vector<int>> streams;  // per client, cycled
  uint64_t digest = 0;                    // FNV-1a over the streams
};

Inputs MakeInputs(const lpb::JobWorkload& wl, uint64_t seed, bool tiny) {
  Inputs in;
  in.subjoins = ConnectedSubjoins(wl.queries);
  for (const Query& q : in.subjoins) {
    in.shared.push_back(std::make_shared<const Query>(q));
  }
  const std::vector<int> rank_to_subjoin =
      Shuffled(in.subjoins.size(), kPopularitySeed);
  const lpb::ZipfSampler zipf(in.subjoins.size(), kZipf);
  const size_t length = tiny ? (1u << 12) : (1u << 21);
  in.digest = 1469598103934665603ull;
  for (int c = 0; c < kClients; ++c) {
    lpb::Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(c));
    std::vector<int> stream(length);
    for (int& s : stream) {
      s = rank_to_subjoin[zipf.Sample(rng)];
      in.digest = (in.digest ^ static_cast<uint64_t>(s)) * 1099511628211ull;
    }
    in.streams.push_back(std::move(stream));
  }
  return in;
}

// What one client saw in the measured phase.
struct ClientLog {
  explicit ClientLog(Clock::time_point epoch) : tracer(epoch) {}
  Tracer tracer;
  size_t cursor = 0;  // next position in the client's stream
  std::vector<double> round_starts;  // seconds since the epoch
  std::vector<double> round_ends;
  std::vector<int> requests;   // stream entries, in submit order
  std::vector<double> values;  // what each future returned
  std::vector<double> latencies_ms;
};

// Runs the closed loop: a warm-up phase whose rounds are discarded, then
// a measured phase that ends once `seconds` have passed and every client
// finished `min_rounds` measured rounds. Every client finishes the round
// it is in.
std::vector<std::unique_ptr<ClientLog>> RunClients(
    lpb::AdvisorService& service, const Inputs& in, Clock::time_point epoch,
    double warmup, double seconds, int min_rounds, bool trace,
    std::vector<size_t>& cursors) {
  std::vector<std::unique_ptr<ClientLog>> logs;
  for (int c = 0; c < kClients; ++c) {
    logs.push_back(std::make_unique<ClientLog>(epoch));
    logs.back()->cursor = cursors[c];
  }
  std::atomic<int> phase{0};  // 0 warm-up, 1 measured, 2 stop
  std::vector<std::atomic<int>> measured_rounds(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = *logs[c];
      const std::vector<int>& stream = in.streams[c];
      Tracer* tracer = trace ? &log.tracer : nullptr;
      std::vector<std::future<double>> futures(kWindow);
      std::vector<Clock::time_point> submitted(kWindow);
      std::vector<int> picks(kWindow);
      for (uint64_t round = 0;; ++round) {
        const int ph = phase.load(std::memory_order_acquire);
        if (ph == 2) break;
        const bool measured = ph == 1;
        Tracer* t = measured ? tracer : nullptr;
        const double start =
            std::chrono::duration<double>(Clock::now() - epoch).count();
        {
          SpanScope op(t, "op", round);
          {
            SpanScope span(t, "serve.submit", round);
            for (int k = 0; k < kWindow; ++k) {
              picks[k] = stream[log.cursor++ % stream.size()];
              submitted[k] = Clock::now();
              futures[k] = service.SubmitLog2(in.shared[picks[k]]);
            }
          }
          SpanScope span(t, "serve.wait", round);
          for (int k = 0; k < kWindow; ++k) {
            const double value = futures[k].get();
            if (!measured) continue;
            log.latencies_ms.push_back(SecondsSince(submitted[k]) * 1e3);
            log.requests.push_back(picks[k]);
            log.values.push_back(value);
          }
        }
        if (!measured) continue;
        const double end =
            std::chrono::duration<double>(Clock::now() - epoch).count();
        log.round_starts.push_back(start);
        log.round_ends.push_back(end);
        measured_rounds[c].fetch_add(1, std::memory_order_release);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
  phase.store(1, std::memory_order_release);
  const Clock::time_point t0 = Clock::now();
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    bool enough = SecondsSince(t0) >= seconds;
    for (int c = 0; c < kClients; ++c) {
      enough = enough && measured_rounds[c].load(std::memory_order_acquire) >=
                             min_rounds;
    }
    if (enough) break;
  }
  phase.store(2, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) cursors[c] = logs[c]->cursor;
  return logs;
}

struct Totals {
  uint64_t requests = 0;
  double seconds = 0.0;
  // Completion rate of each whole kSliceSeconds slice of the window.
  std::vector<double> slice_rates;
};

Totals TotalsOfLogs(const std::vector<std::unique_ptr<ClientLog>>& logs) {
  Totals t;
  double start = 1e300, end = 0.0;
  for (const auto& log : logs) {
    t.requests += log->requests.size();
    start = std::min(start, log->round_starts.front());
    end = std::max(end, log->round_ends.back());
  }
  t.seconds = end - start;
  const size_t slices = static_cast<size_t>(t.seconds / kSliceSeconds);
  std::vector<double> counts(slices, 0.0);
  for (const auto& log : logs) {
    for (double round_end : log->round_ends) {
      const size_t slice =
          static_cast<size_t>((round_end - start) / kSliceSeconds);
      if (slice < slices) counts[slice] += kWindow;
    }
  }
  for (double count : counts) t.slice_rates.push_back(count / kSliceSeconds);
  return t;
}

// Every future must equal the direct advisor estimate of its query, taken
// after the run (to solver tolerance: the direct call re-prices a basis
// the batch path left in another state).
void CheckServed(const std::vector<std::unique_ptr<ClientLog>>& logs,
                 const std::vector<double>& direct, Report& report) {
  for (const auto& log : logs) {
    for (size_t i = 0; i < log->values.size(); ++i) {
      const double want = direct[log->requests[i]];
      const double got = log->values[i];
      ++report.attempted;
      if (!std::isfinite(got) ||
          std::abs(got - want) > 1e-8 * std::max(1.0, std::abs(want))) {
        if (report.failed++ == 0) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "served %.17g but direct estimate is %.17g", got,
                        want);
          report.Fail(buf);
        }
      }
    }
  }
}

// Set-up: a new advisor that estimates every sub-join once, compiling and
// first-solving each structure a request can reach.
double ColdSetup(const lpb::JobWorkload& wl, const Inputs& in,
                 std::unique_ptr<CardinalityAdvisor>& advisor,
                 Report& report) {
  advisor.reset();
  const Clock::time_point t0 = Clock::now();
  advisor = std::make_unique<CardinalityAdvisor>(wl.catalog);
  const std::vector<double> bounds = advisor->EstimateLog2Batch(in.subjoins);
  const double seconds = SecondsSince(t0);
  for (double b : bounds) {
    if (!std::isfinite(b)) report.Fail("set-up estimate is not finite");
  }
  return seconds;
}

}  // namespace

void RunServe(const Args& args, Report& report) {
  const lpb::JobWorkload wl = MakeJob(kJobScale, DefaultDataSeed());
  const Inputs in = MakeInputs(wl, args.seed, args.tiny);
  std::printf("# serve subjoins=%zu clients=%d window=%d workers=1\n",
              in.subjoins.size(), kClients, kWindow);
  const int setups = args.tiny || args.trace ? 1 : kSetups;
  const int min_rounds = args.tiny ? 10 : kLatencyRounds;
  const double warmup = args.tiny ? 0.1 : kWarmupSeconds;

  std::unique_ptr<CardinalityAdvisor> advisor;
  std::vector<double> setup_s;
  for (int r = 0; r < setups; ++r) {
    setup_s.push_back(ColdSetup(wl, in, advisor, report));
  }
  lpb::AdvisorServiceOptions options;
  options.workers = 1;
  lpb::AdvisorService service(*advisor, options);
  const Clock::time_point epoch = Clock::now();
  std::vector<size_t> cursors(kClients, 0);

  if (!args.trace) {
    const auto logs = RunClients(service, in, epoch, warmup, args.seconds,
                                 min_rounds, false, cursors);
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    service.Shutdown();
    if (service.metrics().rejected != 0) report.Fail("requests rejected");
    std::vector<double> direct;
    for (const Query& q : in.subjoins) {
      direct.push_back(advisor->EstimateLog2(q));
    }
    CheckServed(logs, direct, report);

    std::vector<double> sample;
    for (const auto& log : logs) {
      const size_t rounds = log->round_starts.size();
      const size_t picked = std::min<size_t>(rounds, kLatencyRounds);
      for (size_t k = 0; k < picked; ++k) {
        const auto first = log->latencies_ms.begin() +
                           static_cast<long>(k * rounds / picked * kWindow);
        sample.insert(sample.end(), first, first + kWindow);
      }
    }
    const Tail tail = TailOf(sample, size_t{10} * kWindow);
    const Totals totals = TotalsOfLogs(logs);
    const std::vector<uint64_t> truth =
        TrueCounts(wl.queries, wl.catalog, report);
    const double gap = BoundGapLog2(*advisor, wl.queries, truth, report);
    const uint64_t peak_rows =
        PlanPeakRows(*advisor, wl.catalog, wl.queries, truth, report);
    std::printf("# latency samples=%zu tail_percentile=%.3f\n",
                tail.samples, tail.percentile);
    std::printf("# deterministic stream_digest=%016llx plan_peak_rows=%llu "
                "bound_gap_log2=%.9f\n",
                static_cast<unsigned long long>(in.digest),
                static_cast<unsigned long long>(peak_rows), gap);
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("ops_per_s", Median(totals.slice_rates), "1/s");
    report.Set("p50_ms", Median(sample), "ms");
    report.Set("tail_ms", tail.value, "ms");
    report.Set("bound_gap_log2", gap, "log2");
    report.Set("plan_peak_rows", static_cast<double>(peak_rows), "rows");
    return;
  }

  // Traced run: an untraced half window as the overhead baseline, then a
  // traced half window whose request stream is recorded for the replays.
  const auto plain = RunClients(service, in, epoch, warmup,
                                args.seconds / 2, 1, false, cursors);
  const lpb::AdvisorServiceMetrics s0 = service.metrics();
  const AdvisorMetrics before = advisor->metrics();
  const auto logs = RunClients(service, in, epoch, 0.0, args.seconds / 2, 1,
                               true, cursors);
  const AdvisorMetrics after = advisor->metrics();
  service.Shutdown();
  const lpb::AdvisorServiceMetrics s1 = service.metrics();
  if (s1.rejected != 0) report.Fail("requests rejected");
  std::vector<double> direct;
  for (const Query& q : in.subjoins) direct.push_back(advisor->EstimateLog2(q));
  CheckServed(logs, direct, report);

  const Totals plain_totals = TotalsOfLogs(plain);
  const Totals totals = TotalsOfLogs(logs);
  const double requests = static_cast<double>(totals.requests);
  const double batches = static_cast<double>(s1.batches - s0.batches);
  const double mean_batch =
      static_cast<double>(s1.coalesced - s0.coalesced) / batches;
  report.Set("serve.batch_size_mean", mean_batch, "count");
  report.Set("serve.dedup_factor",
             static_cast<double>(s1.coalesced - s0.coalesced) /
                 static_cast<double>(s1.evaluated - s0.evaluated),
             "ratio");
  report.Set("serve.max_queue_depth",
             static_cast<double>(s1.max_queue_depth), "count");
  report.Set("serve.service_p50_ms", s1.latency.p50_ns / 1e6, "ms");
  report.Set("serve.service_p99_ms", s1.latency.p99_ns / 1e6, "ms");
  SetAdvisorLayerMetrics(report, before, after, requests,
                         advisor->CompiledCacheSize());
  std::vector<const Tracer*> client_tracers;
  for (const auto& log : logs) client_tracers.push_back(&log->tracer);
  report.Set("trace.overhead_frac",
             1.0 - (requests / totals.seconds) /
                       (static_cast<double>(plain_totals.requests) /
                        plain_totals.seconds),
             "frac");

  // The recorded stream in submit order (client rounds merged by start
  // time), cut into chunks of the observed mean batch; each chunk is
  // deduplicated like a worker's admission batch.
  struct Round {
    double start;
    int client;
    size_t first;
  };
  std::vector<Round> rounds;
  for (int c = 0; c < kClients; ++c) {
    for (size_t r = 0; r < logs[c]->round_starts.size(); ++r) {
      rounds.push_back({logs[c]->round_starts[r], c, r * kWindow});
    }
  }
  std::sort(rounds.begin(), rounds.end(),
            [](const Round& a, const Round& b) { return a.start < b.start; });
  std::vector<int> stream;
  std::vector<double> served;
  for (const Round& r : rounds) {
    for (int k = 0; k < kWindow; ++k) {
      stream.push_back(logs[r.client]->requests[r.first + k]);
      served.push_back(logs[r.client]->values[r.first + k]);
    }
  }
  const size_t chunk =
      std::max<size_t>(1, static_cast<size_t>(std::lround(mean_batch)));
  std::vector<std::vector<Query>> chunks;
  std::vector<std::vector<double>> chunk_served;
  for (size_t begin = 0; begin < stream.size(); begin += chunk) {
    std::map<int, size_t> slot;
    chunks.emplace_back();
    chunk_served.emplace_back();
    for (size_t i = begin; i < std::min(stream.size(), begin + chunk); ++i) {
      if (slot.emplace(stream[i], chunks.back().size()).second) {
        chunks.back().push_back(in.subjoins[stream[i]]);
        chunk_served.back().push_back(served[i]);
      }
    }
  }

  // The advisor's own batch path, chunk after chunk as the worker calls
  // it: what a request costs inside the advisor.
  double advisor_s = 0.0;
  for (const std::vector<Query>& c : chunks) {
    const Clock::time_point t0 = Clock::now();
    advisor->EstimateLog2Batch(c);
    advisor_s += SecondsSince(t0);
  }
  const double advisor_us = advisor_s * 1e6 / requests;
  report.Set("serve.advisor_us", advisor_us, "us/request");
  report.Set("serve.overhead_us", totals.seconds * 1e6 / requests - advisor_us,
             "us/request");
  report.Set("estimator.call_ms", advisor_us / 1e3, "ms/op");

  // The layer split: the replayer compiles and cold-solves every structure
  // in an untimed pass, then each chunk goes through the advisor and the
  // replayer in turn, so both see the same machine and the same cache
  // disturbance (which goes first alternates). Replayed bounds must equal
  // the futures.
  Replayer replayer(*advisor);
  for (const std::vector<Query>& c : chunks) replayer.Run(c, nullptr, 0);
  replayer.StartTiming();
  Tracer replay_tracer(epoch);
  KernelCalls kernels{};
  uint64_t probes = 0;
  double paired_advisor_s = 0.0;
  for (size_t b = 0; b < chunks.size(); ++b) {
    for (int turn = 0; turn < 2; ++turn) {
      if ((turn + b) % 2 == 0) {
        const Clock::time_point t0 = Clock::now();
        advisor->EstimateLog2Batch(chunks[b]);
        paired_advisor_s += SecondsSince(t0);
        continue;
      }
      const KernelCalls k0 = ThreadKernelCalls();
      SpanScope span(&replay_tracer, "replay", b);
      replayer.Check(replayer.Run(chunks[b], &replay_tracer, b),
                     chunk_served[b], report);
      const KernelCalls k1 = ThreadKernelCalls();
      for (size_t k = 0; k < k1.size(); ++k) kernels[k] += k1[k] - k0[k];
    }
    probes += chunks[b].size();
  }
  SetKernelMetrics(report, KernelCalls{}, kernels,
                   static_cast<double>(probes));
  replayer.SetMetrics(report);
  SetLayerCoverage(report, replayer.LayerSeconds(), paired_advisor_s);
  client_tracers.push_back(&replay_tracer);
  std::printf("# trace spans=%s\n", WriteSpans(args, client_tracers).c_str());
}

}  // namespace lpbench
