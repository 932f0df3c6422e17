// AdvisorService: a concurrent serving front end for CardinalityAdvisor.
//
// The advisor's multi-query batches (estimator/advisor.h) are cheaper per
// estimate than one call per query — one statistics assembly round, one
// compiled-bound lock and one multi-RHS block resolve per structure group
// — but an optimizer fleet submits *single* estimates from many threads.
// This service turns that traffic back into batches by
// **admission batching**: requests land on a bounded MPSC queue per
// pinned worker (util/mpsc_queue.h), and a worker draining its queue
// coalesces every request that arrived within a microbatch window
// (tunable count/time thresholds, AdvisorServiceOptions) into ONE
// EstimateLog2Batch call, completing each caller's future with its own
// estimate. Concurrent single estimates thus ride a single block resolve
// instead of N one-query warm resolves, and the statistics assembly
// dedups their (relation, U, V) degree-sequence keys across the batch.
//
// Request dedup: before resolving, a worker dedups *identical* queries
// (same Query::ToString()) within the admission batch and evaluates each
// distinct query once, fanning the result out to every request that
// asked it. This is exact, not approximate sharing: all evaluations in
// one EstimateLog2Batch call see the same statistics snapshot and the
// same compiled basis, so identical queries in one batch are guaranteed
// identical results — the fan-out returns the very double the request
// would have computed. Under skewed traffic (a few hot templates) this
// is the main amortization: a 256-request batch over 33 templates pays
// for ~30 evaluations.
//
// Latency vs throughput: batch_window_us bounds how long the *first*
// request of a batch waits for company; under load the queue refills
// faster than the window so workers run back-to-back full batches and the
// window never engages. max_batch bounds the block-resolve size (and the
// tail latency of the requests coalesced behind the first).
//
// Shutdown contract: Shutdown() (also run by the destructor) stops
// admission, lets the workers drain every request already queued —
// completing their futures normally — and joins. A Submit racing or
// following Shutdown completes its future immediately with quiet NaN
// ("not served") and counts as rejected; no request ever hangs or loses
// its future.
//
// Thread safety: every public method may be called concurrently, with any
// mix of SubmitLog2 / EstimateLog2 / Invalidate / metrics / Shutdown.
#ifndef LPB_SERVE_ADVISOR_SERVICE_H_
#define LPB_SERVE_ADVISOR_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "estimator/advisor.h"
#include "query/query.h"
#include "util/latency_histogram.h"
#include "util/mpsc_queue.h"

namespace lpb {

struct AdvisorServiceOptions {
  // Worker threads, each pinned (best effort) to core w % ncpu and owning
  // one admission queue. <= 0 picks std::thread::hardware_concurrency().
  int workers = 0;
  // Bounded capacity of each worker's admission queue; a full queue
  // backpressures submitters (Push blocks) instead of growing the heap.
  size_t queue_capacity = 1024;
  // Admission-batch ceiling: at most this many coalesced requests per
  // EstimateLog2Batch block resolve.
  int max_batch = 64;
  // Microbatch window: after popping the first request of a batch, the
  // worker waits up to this long for more before resolving. 0 = resolve
  // whatever is queued right now (lowest latency, coalesces only what
  // already piled up).
  int batch_window_us = 100;
  // Best-effort CPU affinity for workers (Linux only; ignored elsewhere).
  bool pin_workers = true;
};

// Cumulative serving counters plus the per-request latency summary
// (submit-to-completion, measured inside the service).
struct AdvisorServiceMetrics {
  uint64_t submitted = 0;      // requests accepted onto a queue
  uint64_t completed = 0;      // futures fulfilled with an estimate
  uint64_t rejected = 0;       // submitted during/after Shutdown (NaN)
  uint64_t batches = 0;        // EstimateLog2Batch calls issued by workers
  uint64_t coalesced = 0;      // requests across those batches
  uint64_t evaluated = 0;      // distinct queries evaluated after dedup
  uint64_t max_coalesced = 0;  // largest admission batch observed
  uint64_t max_queue_depth = 0;  // high-water queue depth sampled at submit
  LatencyHistogram::Summary latency;

  double MeanBatchSize() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(coalesced) /
                              static_cast<double>(batches);
  }

  // Requests served per distinct query evaluated — the dedup win on top
  // of coalescing (1.0 = no repeats in any batch).
  double DedupFactor() const {
    return evaluated == 0 ? 1.0
                          : static_cast<double>(coalesced) /
                                static_cast<double>(evaluated);
  }
};

class AdvisorService {
 public:
  // The advisor must outlive the service. The service adds no caching of
  // its own: estimates come from the advisor's compiled-bound and
  // statistics caches, so results equal direct advisor calls.
  explicit AdvisorService(CardinalityAdvisor& advisor,
                          AdvisorServiceOptions options = {});
  ~AdvisorService();

  AdvisorService(const AdvisorService&) = delete;
  AdvisorService& operator=(const AdvisorService&) = delete;

  // Submits one estimate; the future resolves to the query's log2 bound
  // (identical to advisor.EstimateLog2) once a worker's admission batch
  // containing it completes. After Shutdown the future is already
  // resolved, with quiet NaN.
  std::future<double> SubmitLog2(Query query);

  // Zero-copy submit: the service shares ownership of the query instead
  // of deep-copying it (a JOB query is ~10 small heap blocks, which at
  // serving rates is the dominant client-side cost). Callers replaying a
  // fixed template set should wrap each template in a shared_ptr once
  // and submit handle copies. The pointee must not be mutated while the
  // request is in flight.
  std::future<double> SubmitLog2(std::shared_ptr<const Query> query);

  // Synchronous convenience: SubmitLog2 + get(). Still rides admission
  // batching — concurrent callers coalesce.
  double EstimateLog2(const Query& query);

  // Forwards to the advisor's statistics invalidation; safe concurrently
  // with serving (in-flight batches keep their already-assembled values,
  // exactly like direct advisor calls racing Invalidate).
  void Invalidate(const std::string& relation);

  // Stops admission, drains queued requests to completion, joins workers.
  // Idempotent and safe to call concurrently.
  void Shutdown();

  AdvisorServiceMetrics metrics() const;

 private:
  struct Request {
    std::shared_ptr<const Query> query;
    std::promise<double> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop(int worker);

  CardinalityAdvisor& advisor_;
  AdvisorServiceOptions options_;
  std::vector<std::unique_ptr<BoundedMpscQueue<Request>>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> next_queue_{0};  // round-robin submit cursor
  std::atomic<bool> stopping_{false};
  std::mutex join_mu_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> evaluated_{0};
  std::atomic<uint64_t> max_coalesced_{0};
  std::atomic<uint64_t> max_queue_depth_{0};
  LatencyHistogram latency_;
};

}  // namespace lpb

#endif  // LPB_SERVE_ADVISOR_SERVICE_H_
