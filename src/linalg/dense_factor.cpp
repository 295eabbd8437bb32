#include "linalg/dense_factor.hpp"

#include <cmath>

#include "common/error.hpp"

namespace gp::linalg {

FactorStatus Cholesky::factor(const DenseMatrix& a) {
  require(a.rows() == a.cols(), "Cholesky: matrix must be square");
  const std::size_t n = a.rows();
  l_ = DenseMatrix(n, n);
  factored_ = false;
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l_(j, k) * l_(j, k);
    if (diag <= 0.0) return FactorStatus::kNotPositiveDefinite;
    const double ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double value = a(i, j);
      for (std::size_t k = 0; k < j; ++k) value -= l_(i, k) * l_(j, k);
      l_(i, j) = value / ljj;
    }
  }
  factored_ = true;
  return FactorStatus::kOk;
}

Vector Cholesky::solve(std::span<const double> b) const {
  require(factored_, "Cholesky::solve before successful factor()");
  const std::size_t n = l_.rows();
  require(b.size() == n, "Cholesky::solve: size mismatch");
  Vector x(b.begin(), b.end());
  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double value = x[i];
    for (std::size_t k = 0; k < i; ++k) value -= l_(i, k) * x[k];
    x[i] = value / l_(i, i);
  }
  // Back substitution L^T x = y.
  for (std::size_t i = n; i-- > 0;) {
    double value = x[i];
    for (std::size_t k = i + 1; k < n; ++k) value -= l_(k, i) * x[k];
    x[i] = value / l_(i, i);
  }
  return x;
}

FactorStatus Ldlt::factor(const DenseMatrix& a, double pivot_tolerance) {
  require(a.rows() == a.cols(), "Ldlt: matrix must be square");
  const std::size_t n = a.rows();
  l_ = DenseMatrix(n, n);
  d_.assign(n, 0.0);
  factored_ = false;
  for (std::size_t j = 0; j < n; ++j) {
    double dj = a(j, j);
    for (std::size_t k = 0; k < j; ++k) dj -= l_(j, k) * l_(j, k) * d_[k];
    if (std::abs(dj) < pivot_tolerance) return FactorStatus::kZeroPivot;
    d_[j] = dj;
    l_(j, j) = 1.0;
    for (std::size_t i = j + 1; i < n; ++i) {
      double value = a(i, j);
      for (std::size_t k = 0; k < j; ++k) value -= l_(i, k) * l_(j, k) * d_[k];
      l_(i, j) = value / dj;
    }
  }
  factored_ = true;
  return FactorStatus::kOk;
}

Vector Ldlt::solve(std::span<const double> b) const {
  require(factored_, "Ldlt::solve before successful factor()");
  const std::size_t n = l_.rows();
  require(b.size() == n, "Ldlt::solve: size mismatch");
  Vector x(b.begin(), b.end());
  for (std::size_t i = 0; i < n; ++i) {
    double value = x[i];
    for (std::size_t k = 0; k < i; ++k) value -= l_(i, k) * x[k];
    x[i] = value;  // L has unit diagonal
  }
  for (std::size_t i = 0; i < n; ++i) x[i] /= d_[i];
  for (std::size_t i = n; i-- > 0;) {
    double value = x[i];
    for (std::size_t k = i + 1; k < n; ++k) value -= l_(k, i) * x[k];
    x[i] = value;
  }
  return x;
}

}  // namespace gp::linalg
