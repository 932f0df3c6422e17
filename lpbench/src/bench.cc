#include "bench.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "lp/kernels.h"
#include "lp/lp_backend.h"

namespace lpbench {

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  std::printf("# CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double HeapInUseBytes() {
  // Large blocks are mmap-ed and counted apart from the arena's.
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  std::nth_element(values.begin(), values.begin() + n / 2, values.end());
  const double upper = values[n / 2];
  if (n % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + n / 2);
  return (lower + upper) / 2.0;
}

Tail TailOf(std::vector<double> values, size_t beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  beyond = std::min(beyond, n - 1);
  tail.value = values[n - 1 - beyond];
  tail.percentile =
      100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  return tail;
}

void Tracer::Begin(const char* name, uint64_t op) {
  Span span;
  span.name = name;
  span.start = std::chrono::duration<double>(Clock::now() - epoch_).count();
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  open_.push_back(static_cast<int>(spans_.size()));
  spans_.push_back(span);
}

void Tracer::End() {
  spans_[open_.back()].end =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
  open_.pop_back();
}

SpanTotals TotalsOf(const std::vector<const Tracer*>& tracers,
                    const std::string& name) {
  SpanTotals totals;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<double> children(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) children[s.parent] += s.end - s.start;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (name != spans[i].name) continue;
      const double duration = spans[i].end - spans[i].start;
      totals.total += duration;
      totals.self += duration - children[i];
    }
  }
  return totals;
}

std::string WriteSpans(const Args& args,
                       const std::vector<const Tracer*>& tracers) {
  const std::string dir = ".bench_out";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
  std::ofstream out(path);
  char line[256];
  for (size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::snprintf(line, sizeof line,
                    "{\"thread\":%zu,\"id\":%zu,\"name\":\"%s\",\"start_us\":"
                    "%.3f,\"end_us\":%.3f,\"parent\":%d,\"op\":%llu}\n",
                    t, i, s.name, s.start * 1e6, s.end * 1e6, s.parent,
                    static_cast<unsigned long long>(s.op));
      out << line;
    }
  }
  return path;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool CpuFlag(const char* flag) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (std::strcmp(flag, "avx2") == 0) return __builtin_cpu_supports("avx2");
  if (std::strcmp(flag, "fma") == 0) return __builtin_cpu_supports("fma");
#endif
  (void)flag;
  return false;
}

const char* CompilerId() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

void PrintRunHeader(const Args& args) {
  std::printf("# lpbench workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.tiny ? "tiny" : "full");
  std::printf("# host nproc=%ld cpu=\"%s\" avx2=%d fma=%d\n",
              sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
              CpuFlag("avx2") ? 1 : 0, CpuFlag("fma") ? 1 : 0);
  const lpb::SimplexOptions defaults;
  std::printf("# build compiler=\"%s\" build_type=%s lp_backend=%s simd=%s\n",
              CompilerId(), LPBENCH_BUILD_TYPE,
              lpb::LpBackendName(lpb::ResolveLpBackend(defaults)),
              lpb::LpKernelDispatchName(lpb::ResolveSimdMode(defaults)));
}

void PrintResult(const Report& report) {
  bool finite = true;
  std::string metrics;
  char buf[256];
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("# CHECK FAILED: metric %s is not finite\n", m.name.c_str());
      finite = false;
      continue;
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct && finite ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace lpbench
