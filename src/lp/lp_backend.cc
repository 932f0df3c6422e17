#include "lp/lp_backend.h"

namespace lpb {

NormalizedRows NormalizeRows(const LpProblem& problem,
                             const std::vector<double>& rhs) {
  const int rows = problem.num_constraints();
  NormalizedRows out;
  out.sense.resize(rows);
  out.row_sign.assign(rows, 1.0);
  for (int i = 0; i < rows; ++i) {
    const LpConstraint& c = problem.constraint(i);
    const double b = rhs.empty() ? c.rhs : rhs[i];
    LpSense s = c.sense;
    if (b < 0.0 || (s == LpSense::kGe && b == 0.0)) {
      out.row_sign[i] = -1.0;
      if (s == LpSense::kLe) {
        s = LpSense::kGe;
      } else if (s == LpSense::kGe) {
        s = LpSense::kLe;
      }
    }
    out.sense[i] = s;
    if (s != LpSense::kEq) ++out.num_slack;
    if (s != LpSense::kLe) ++out.num_art;
  }
  return out;
}

const char* LpBackendName(LpBackendKind kind) {
  switch (kind) {
    case LpBackendKind::kRevised:
      return "revised";
  }
  return "unknown";
}

LpBackendKind ResolveLpBackend(const SimplexOptions& /*options*/) {
  return LpBackendKind::kRevised;
}

SimdMode ResolveSimdMode(const SimplexOptions& options) {
  return options.simd;
}

const char* LpKernelName(LpKernelId id) {
  switch (id) {
    case kLpKernelAxpy:
      return "axpy_d";
    case kLpKernelDot:
      return "dot_d";
    case kLpKernelNormalizeRhs:
      return "normalize_rhs_d";
    case kLpKernelEqual:
      return "equal_d";
    case kLpKernelGather:
      return "gather_axpy_ld";
    case kLpKernelSweep:
      return "sweep_ld";
    case kLpKernelScale:
      return "scale_ld";
    case kLpKernelFtranBlock:
      return "ftran_block_ld";
    case kNumLpKernels:
      break;
  }
  return "unknown";
}

}  // namespace lpb
