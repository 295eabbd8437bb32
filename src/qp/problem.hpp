// Convex quadratic program in OSQP form:
//
//   minimize    (1/2) x^T P x + q^T x
//   subject to  lower <= A x <= upper
//
// P is symmetric positive semidefinite. Equality constraints are rows with
// lower == upper; one-sided constraints use +/- infinity on the free side.
// This is the single optimization interface the rest of the library builds
// on: the DSPP window program (Section V of the paper), the per-provider
// best-response programs and the social-welfare program (Section VI) are all
// instances of this type.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/sparse_matrix.hpp"

namespace gp::qp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Problem data for `min 1/2 x'Px + q'x  s.t.  lower <= Ax <= upper`.
struct QpProblem {
  linalg::SparseMatrix p;  ///< n x n symmetric PSD cost matrix (full, not triangle)
  linalg::Vector q;        ///< linear cost, size n
  linalg::SparseMatrix a;  ///< m x n constraint matrix
  linalg::Vector lower;    ///< size m, entries may be -infinity
  linalg::Vector upper;    ///< size m, entries may be +infinity

  std::size_t num_variables() const { return q.size(); }
  std::size_t num_constraints() const { return lower.size(); }

  /// Throws PreconditionError when shapes/bounds are inconsistent.
  void validate() const;

  /// Objective value at x.
  double objective(std::span<const double> x) const;

  /// Max constraint violation at x (infinity norm of the bound excess).
  double constraint_violation(std::span<const double> x) const;
};

/// The four KKT residuals of a primal-dual point, in QpResult's dual sign
/// convention (y_i > 0 pushes on row i's upper bound, y_i < 0 on its lower).
/// All four are max-norms; the point is a KKT point when all are 0.
struct KktCertificate {
  double primal = 0.0;           ///< bound excess of A x
  double stationarity = 0.0;     ///< || P x + q + A'y ||_inf
  double dual_sign = 0.0;        ///< y_i > 0 on a row with no upper bound, y_i < 0 on one with no lower
  double complementarity = 0.0;  ///< |y_i| times the gap to the bound y_i pushes on
};

/// Folds one row's primal, dual-sign and complementarity terms into `cert`
/// (row value ax, bounds [lower, upper], dual y). Shared by kkt_certificate
/// and by solvers that certify a structured problem without assembling it.
inline void certify_row(KktCertificate& cert, double ax, double lower, double upper, double y) {
  cert.primal = std::max({cert.primal, lower - ax, ax - upper});
  if (y > 0.0) {
    if (upper < kInfinity) {
      cert.complementarity = std::max(cert.complementarity, y * std::abs(upper - ax));
    } else {
      cert.dual_sign = std::max(cert.dual_sign, y);
    }
  } else if (y < 0.0) {
    if (lower > -kInfinity) {
      cert.complementarity = std::max(cert.complementarity, -y * std::abs(ax - lower));
    } else {
      cert.dual_sign = std::max(cert.dual_sign, -y);
    }
  }
}

/// Full KKT test of (x, y) for `problem`: primal violation, stationarity,
/// dual sign and complementarity (see KktCertificate).
KktCertificate kkt_certificate(const QpProblem& problem, std::span<const double> x,
                               std::span<const double> y);

}  // namespace gp::qp
