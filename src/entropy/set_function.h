// Set functions h : 2^X -> R over a variable set of size n, stored densely
// and indexed by VarSet bitmask. This is the vector space R^{2^[n]} of the
// paper's Sec 3; polymatroids, entropic vectors, step functions and modular
// functions are all SetFunction instances.
#ifndef LPB_ENTROPY_SET_FUNCTION_H_
#define LPB_ENTROPY_SET_FUNCTION_H_

#include <cstddef>
#include <vector>

#include "util/bits.h"

namespace lpb {

class SetFunction {
 public:
  // Holds no storage (size() == 0): a placeholder, such as the h_opt of a
  // bound that did not materialize one. SetFunction(0) is the function on
  // zero variables, with its one entry h(∅).
  SetFunction() : n_(0) {}
  explicit SetFunction(int n) : n_(n), h_(size_t{1} << n, 0.0) {}

  int num_vars() const { return n_; }
  size_t size() const { return h_.size(); }

  double operator[](VarSet s) const { return h_[s]; }
  double& operator[](VarSet s) { return h_[s]; }

  // h(V | U) = h(U ∪ V) - h(U).
  double Conditional(VarSet v, VarSet u) const { return h_[u | v] - h_[u]; }

  SetFunction& operator+=(const SetFunction& o);
  SetFunction& operator*=(double c);
  friend SetFunction operator+(SetFunction a, const SetFunction& b) {
    a += b;
    return a;
  }
  friend SetFunction operator*(double c, SetFunction a) {
    a *= c;
    return a;
  }

  // Max |h(S) - o(S)| over all S.
  double MaxDiff(const SetFunction& o) const;

  // The step function h_W (Eq. (27)): h_W(U) = 1 if W ∩ U ≠ ∅ else 0.
  static SetFunction Step(int n, VarSet w);

  // The modular function Σ_i weights[i] · h_{X_i}: h(U) = Σ_{i∈U} weights[i].
  static SetFunction Modular(int n, const std::vector<double>& weights);

  // Positive linear combination Σ_W alpha[W] · h_W of step functions — a
  // normal polymatroid when all coefficients are >= 0 (Sec 3). `alpha` is
  // indexed by VarSet and alpha[0] is ignored.
  static SetFunction NormalCombination(int n, const std::vector<double>& alpha);

 private:
  int n_;
  std::vector<double> h_;
};

}  // namespace lpb

#endif  // LPB_ENTROPY_SET_FUNCTION_H_
