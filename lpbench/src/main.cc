// lpbench: end-to-end and per-layer benchmark of the cardinality-bound
// pipeline. See ../README.md for the workloads, metrics and predictions.
//
//   lpbench --workload plan|serve|churn --seed N --seconds S --trace 0|1
//           [--size full|tiny]
//
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the result line then says "correct": false), 2 on a usage error.
// run.py is the entry point: it builds this binary, refuses LPB_* knobs,
// and checks the reported metrics against BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace lpbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "lpbench: %s\nusage: lpbench --workload plan|serve|churn "
               "--seed N --seconds S --trace 0|1 [--size full|tiny]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (value != "plan" && value != "serve" && value != "churn") {
        return Usage(("unknown workload " + value).c_str());
      }
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return Usage("bad --size");
      args.tiny = value == "tiny";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");

  PrintRunHeader(args);
  Report report;
  if (args.workload == "plan") {
    RunPlan(args, report);
  } else if (args.workload == "serve") {
    RunServe(args, report);
  } else {
    RunChurn(args, report);
  }
  if (report.attempted == 0) report.Fail("no operation was attempted");
  if (report.failed > 0) report.Fail("operations failed their checks");
  if (!args.trace && report.attempted > 0) {
    report.Set("ok_frac",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(report.attempted),
               "frac");
  }
  PrintResult(report);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace lpbench

int main(int argc, char** argv) { return lpbench::Main(argc, argv); }
