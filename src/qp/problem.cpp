#include "qp/problem.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gp::qp {

void QpProblem::validate() const {
  const auto n = static_cast<std::int32_t>(q.size());
  const auto m = static_cast<std::int32_t>(lower.size());
  require(p.rows() == n && p.cols() == n, "QpProblem: P must be n x n");
  require(a.cols() == n, "QpProblem: A column count must equal n");
  require(a.rows() == m, "QpProblem: A row count must equal bound size");
  require(upper.size() == lower.size(), "QpProblem: bound sizes differ");
  for (std::size_t i = 0; i < lower.size(); ++i) {
    require(lower[i] <= upper[i], "QpProblem: lower > upper at row " + std::to_string(i));
    require(!std::isnan(lower[i]) && !std::isnan(upper[i]), "QpProblem: NaN bound");
    require(lower[i] < kInfinity && upper[i] > -kInfinity,
            "QpProblem: bound has the wrong-signed infinity");
  }
}

double QpProblem::objective(std::span<const double> x) const {
  require(x.size() == q.size(), "objective: size mismatch");
  const linalg::Vector px = p.multiply(x);
  return 0.5 * linalg::dot(px, x) + linalg::dot(q, x);
}

double QpProblem::constraint_violation(std::span<const double> x) const {
  require(x.size() == q.size(), "constraint_violation: size mismatch");
  const linalg::Vector ax = a.multiply(x);
  double worst = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    worst = std::max(worst, lower[i] - ax[i]);
    worst = std::max(worst, ax[i] - upper[i]);
  }
  return worst;
}

KktCertificate kkt_certificate(const QpProblem& problem, std::span<const double> x,
                               std::span<const double> y) {
  require(x.size() == problem.num_variables() && y.size() == problem.num_constraints(),
          "kkt_certificate: size mismatch");
  KktCertificate cert;
  const linalg::Vector ax = problem.a.multiply(x);
  for (std::size_t i = 0; i < ax.size(); ++i) {
    certify_row(cert, ax[i], problem.lower[i], problem.upper[i], y[i]);
  }
  const linalg::Vector px = problem.p.multiply(x);
  const linalg::Vector aty = problem.a.multiply_transposed(y);
  for (std::size_t j = 0; j < x.size(); ++j) {
    cert.stationarity = std::max(cert.stationarity, std::abs(px[j] + problem.q[j] + aty[j]));
  }
  return cert;
}

}  // namespace gp::qp
