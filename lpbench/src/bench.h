// Shared machinery of the lpbench binary: command line, result report,
// latency statistics, process probes, and the span tracer.
//
// Every workload runs in its own process and prints exactly one JSON
// result as the last line of standard output. Lines before it start with
// "# " and carry the run header, the latency-sample definition and the
// deterministic figures the self-check compares.
#ifndef LPBENCH_BENCH_H_
#define LPBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lpbench {

// ---------------------------------------------------------------------------
// Command line.

struct Args {
  std::string workload;  // plan | serve | churn
  uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured window
  bool trace = false;     // per-layer (traced) run instead of end to end
  // "full" is the benchmark; "tiny" shrinks inputs and repetition counts
  // for the determinism self-check (tests/test_determinism.py).
  bool tiny = false;
};

// ---------------------------------------------------------------------------
// Result report: the metrics of one run plus the correctness tally.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit);
  // Records a failed correctness check: prints it and marks the run wrong.
  void Fail(const std::string& what);
};

// ---------------------------------------------------------------------------
// Time and process probes.

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Peak resident set of this process so far, in MiB (getrusage).
double PeakRssMb();
// Bytes currently allocated by malloc, arena and mmap-ed blocks alike
// (glibc mallinfo2).
double HeapInUseBytes();

// ---------------------------------------------------------------------------
// Latency statistics over one fixed-size sample.

double Median(std::vector<double> values);

// The highest percentile that still has at least `beyond` samples beyond
// it (ten unless samples come in groups that complete together).
// `percentile` is its rank as a percentage of the sample, so the run
// header can state exactly what was measured.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values, size_t beyond = 10);

// ---------------------------------------------------------------------------
// Spans. One Tracer per thread; spans nest through an explicit stack and
// are kept in memory until the run writes them out.

struct Span {
  const char* name = "";
  double start = 0.0;  // seconds since the tracer's epoch
  double end = 0.0;
  int parent = -1;     // index into the same tracer, -1 at top level
  uint64_t op = 0;     // operation the span belongs to
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}
  void Begin(const char* name, uint64_t op);
  void End();
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, uint64_t op) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name, op);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

// Span totals by name: summed duration and summed self time (duration
// minus the time covered by direct children), in seconds.
struct SpanTotals {
  double total = 0.0;
  double self = 0.0;
};
SpanTotals TotalsOf(const std::vector<const Tracer*>& tracers,
                    const std::string& name);
// Writes every span as one JSON object per line to
// .bench_out/trace-<workload>-<seed>.jsonl; returns the path.
std::string WriteSpans(const Args& args,
                       const std::vector<const Tracer*>& tracers);

// ---------------------------------------------------------------------------
// Output.

// Prints "# key=value ..." header lines: machine, compiler, build, LP
// backend and SIMD dispatch.
void PrintRunHeader(const Args& args);
// Prints the final JSON line.
void PrintResult(const Report& report);

// ---------------------------------------------------------------------------
// Workloads. Each fills `report` with the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run).

void RunPlan(const Args& args, Report& report);
void RunServe(const Args& args, Report& report);
void RunChurn(const Args& args, Report& report);

}  // namespace lpbench

#endif  // LPBENCH_BENCH_H_
