// Dense factorizations: Cholesky (SPD) and LDL^T (symmetric quasi-definite).
//
// These back the dense interior-point QP solver and the AR(p) predictor fit.
#pragma once

#include "linalg/dense_matrix.hpp"

namespace gp::linalg {

/// Result status for factorizations (expected run-time outcomes, per the
/// library's error-handling convention).
enum class FactorStatus {
  kOk,
  kNotPositiveDefinite,  // Cholesky hit a non-positive pivot
  kZeroPivot,            // LDL^T hit a (near-)zero pivot
};

/// Dense Cholesky factorization A = L L^T of a symmetric positive-definite
/// matrix. Only the lower triangle of the input is referenced.
class Cholesky {
 public:
  FactorStatus factor(const DenseMatrix& a);

  /// Solves A x = b; requires a successful factor(). Returns x.
  Vector solve(std::span<const double> b) const;

  const DenseMatrix& l() const { return l_; }

 private:
  DenseMatrix l_;
  bool factored_ = false;
};

/// Dense LDL^T factorization without pivoting. Intended for symmetric
/// quasi-definite matrices (e.g. regularized KKT systems), where the
/// factorization exists with a signed diagonal D.
class Ldlt {
 public:
  /// pivot_tolerance: |d_k| below this is reported as kZeroPivot.
  FactorStatus factor(const DenseMatrix& a, double pivot_tolerance = 1e-13);

  /// Solves A x = b; requires a successful factor(). Returns x.
  Vector solve(std::span<const double> b) const;

  std::span<const double> d() const { return d_; }

 private:
  DenseMatrix l_;
  Vector d_;
  bool factored_ = false;
};

}  // namespace gp::linalg
