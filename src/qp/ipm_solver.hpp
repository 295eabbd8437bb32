// Dense primal-dual interior-point QP solver (Mehrotra predictor-corrector).
//
// Internally converts the two-sided OSQP-form problem into
//
//   minimize    (1/2) x^T P x + q^T x
//   subject to  E x = f,  G x + s = h,  s >= 0
//
// and iterates Newton steps on the perturbed KKT conditions using this
// library's dense LDL^T with light Tikhonov regularization (the KKT matrix
// is then symmetric quasi-definite, so no pivoting is needed).
//
// The solver is O(n^3) per iteration and intended for cross-validating the
// sparse ADMM path in tests and for the small window programs that dominate
// the paper's experiments. Duals are mapped back to the two-sided
// convention: y_i > 0 pushes against the upper bound, y_i < 0 against the
// lower bound.
#pragma once

#include "qp/solver.hpp"

namespace gp::qp {

/// Settings of IpmSolver that callers choose.
struct IpmSettings {
  double tolerance = 1e-9;  ///< residual + complementarity target
};

/// Dense Mehrotra predictor-corrector solver (see file comment). Every solve
/// builds its dense blocks from scratch; nothing is kept between solves.
class IpmSolver final : public QpSolver {
 public:
  IpmSolver() = default;
  explicit IpmSolver(IpmSettings settings) : settings_(settings) {}

  QpResult solve(const QpProblem& problem) override;

 private:
  IpmSettings settings_;
};

}  // namespace gp::qp
