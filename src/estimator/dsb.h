// The Degree Sequence Bound (DSB) of Deeds et al. [6] for a single join
// Q(X,Y,Z) = R(X,Y) ∧ S(Y,Z), Eq. (49):
//   DSB = Σ_i a_i · b_i
// where a, b are the degree sequences deg_R(X|Y) and deg_S(Z|Y) sorted in
// non-increasing order. Tight for Berge-acyclic queries; Appendix C.3
// contrasts it with the ℓp polymatroid bound (which can be a factor
// Θ(M^{1/9}) larger on the (0,1/3)/(0,2/3) instance, reproduced by the
// dsb_gap rows of tests/test_accuracy.cc).
#ifndef LPB_ESTIMATOR_DSB_H_
#define LPB_ESTIMATOR_DSB_H_

#include <cstdint>

#include "relation/degree_sequence.h"

namespace lpb {

// Σ_i a_i b_i over the common prefix of the two sorted sequences.
uint64_t SingleJoinDsb(const DegreeSequence& a, const DegreeSequence& b);

// log2 of the DSB (0-size joins map to -infinity).
double SingleJoinDsbLog2(const DegreeSequence& a, const DegreeSequence& b);

}  // namespace lpb

#endif  // LPB_ESTIMATOR_DSB_H_
