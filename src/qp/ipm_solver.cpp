#include "qp/ipm_solver.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "linalg/dense_factor.hpp"
#include "linalg/dense_matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace gp::qp {

namespace {

using linalg::DenseMatrix;
using linalg::Vector;

constexpr int kMaxIterations = 100;
constexpr double kRegularization = 1e-9;  ///< static KKT regularization
constexpr double kStepFraction = 0.99;    ///< fraction-to-boundary

/// Row of the inequality block and where it came from in the two-sided
/// form (G x <= h rows: a_i x <= upper_i, or -a_i x <= -lower_i).
struct InequalityRow {
  std::size_t source_row = 0;  ///< row in the original A
  bool is_upper = false;       ///< true: a_i x <= upper; false: -a_i x <= -lower
};

}  // namespace

QpResult IpmSolver::solve(const QpProblem& problem) {
  obs::Span span("ipm.solve");
  problem.validate();
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();

  // --- Split the two-sided rows into equalities and one-sided inequalities.
  std::vector<std::size_t> equality_rows;
  std::vector<InequalityRow> inequality_rows;
  for (std::size_t i = 0; i < m; ++i) {
    if (problem.lower[i] == problem.upper[i]) {
      equality_rows.push_back(i);
      continue;
    }
    if (problem.upper[i] < kInfinity) inequality_rows.push_back({i, true});
    if (problem.lower[i] > -kInfinity) inequality_rows.push_back({i, false});
  }
  const std::size_t pe = equality_rows.size();
  const std::size_t mi = inequality_rows.size();
  const DenseMatrix a_dense = problem.a.to_dense();
  const DenseMatrix p_dense = problem.p.to_dense();
  DenseMatrix e_mat(pe, n), g_mat(mi, n);
  Vector f(pe), h(mi);
  for (std::size_t r = 0; r < pe; ++r) {
    const std::size_t src = equality_rows[r];
    for (std::size_t c = 0; c < n; ++c) e_mat(r, c) = a_dense(src, c);
    f[r] = problem.upper[src];
  }
  for (std::size_t r = 0; r < mi; ++r) {
    const auto& row = inequality_rows[r];
    const double sign = row.is_upper ? 1.0 : -1.0;
    for (std::size_t c = 0; c < n; ++c) g_mat(r, c) = sign * a_dense(row.source_row, c);
    h[r] = row.is_upper ? problem.upper[row.source_row] : -problem.lower[row.source_row];
  }

  // --- Starting point.
  Vector x(n, 0.0);
  Vector y(pe, 0.0);
  Vector s(mi, 1.0), z(mi, 1.0);
  {
    const Vector gx = g_mat.multiply(x);
    for (std::size_t i = 0; i < mi; ++i) s[i] = std::max(h[i] - gx[i], 1.0);
  }

  QpResult result;
  result.status = SolveStatus::kMaxIterations;
  const std::size_t kkt_n = n + pe + mi;
  const double reg = kRegularization;

  int iteration = 0;
  for (; iteration < kMaxIterations; ++iteration) {
    // Residuals.
    const Vector px = p_dense.multiply(x);
    const Vector ety = e_mat.multiply_transposed(y);
    const Vector gtz = g_mat.multiply_transposed(z);
    Vector rd(n);
    for (std::size_t j = 0; j < n; ++j) rd[j] = px[j] + problem.q[j] + ety[j] + gtz[j];
    const Vector ex = e_mat.multiply(x);
    Vector re(pe);
    for (std::size_t r = 0; r < pe; ++r) re[r] = ex[r] - f[r];
    const Vector gx = g_mat.multiply(x);
    Vector rp(mi);
    for (std::size_t r = 0; r < mi; ++r) rp[r] = gx[r] + s[r] - h[r];

    const double mu = mi > 0 ? linalg::dot(s, z) / static_cast<double>(mi) : 0.0;
    const double norm_scale =
        1.0 + std::max({linalg::norm_inf(problem.q), linalg::norm_inf(h), linalg::norm_inf(f)});
    if (obs::recording_enabled()) {
      obs::ConvergenceRecorder::local().push(
          "ipm.residual", iteration + 1, linalg::norm_inf(rd),
          std::max(linalg::norm_inf(re), linalg::norm_inf(rp)), mu);
    }
    if (linalg::norm_inf(rd) <= settings_.tolerance * norm_scale &&
        linalg::norm_inf(re) <= settings_.tolerance * norm_scale &&
        linalg::norm_inf(rp) <= settings_.tolerance * norm_scale &&
        mu <= settings_.tolerance * norm_scale) {
      result.status = SolveStatus::kOptimal;
      break;
    }

    // Assemble the regularized KKT matrix.
    DenseMatrix kkt(kkt_n, kkt_n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) kkt(r, c) = p_dense(r, c);
      kkt(r, r) += reg;
    }
    for (std::size_t r = 0; r < pe; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        kkt(n + r, c) = e_mat(r, c);
        kkt(c, n + r) = e_mat(r, c);
      }
      kkt(n + r, n + r) = -reg;
    }
    for (std::size_t r = 0; r < mi; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        kkt(n + pe + r, c) = g_mat(r, c);
        kkt(c, n + pe + r) = g_mat(r, c);
      }
      kkt(n + pe + r, n + pe + r) = -s[r] / z[r] - reg;
    }
    linalg::Ldlt ldlt;
    if (ldlt.factor(kkt) != linalg::FactorStatus::kOk) {
      result.status = SolveStatus::kNumericalError;
      break;
    }

    auto solve_step = [&](const Vector& rsz) {
      Vector rhs(kkt_n, 0.0);
      for (std::size_t j = 0; j < n; ++j) rhs[j] = -rd[j];
      for (std::size_t r = 0; r < pe; ++r) rhs[n + r] = -re[r];
      for (std::size_t r = 0; r < mi; ++r) rhs[n + pe + r] = -rp[r] + rsz[r] / z[r];
      return ldlt.solve(rhs);
    };
    auto extract = [&](const Vector& step, Vector& dx, Vector& dy, Vector& dz, Vector& ds) {
      dx.assign(step.begin(), step.begin() + static_cast<std::ptrdiff_t>(n));
      dy.assign(step.begin() + static_cast<std::ptrdiff_t>(n),
                step.begin() + static_cast<std::ptrdiff_t>(n + pe));
      dz.assign(step.begin() + static_cast<std::ptrdiff_t>(n + pe), step.end());
      const Vector g_dx = g_mat.multiply(dx);
      ds.assign(mi, 0.0);
      for (std::size_t r = 0; r < mi; ++r) ds[r] = -rp[r] - g_dx[r];
    };
    auto max_step = [&](const Vector& v, const Vector& dv) {
      double alpha = 1.0;
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (dv[i] < 0.0) alpha = std::min(alpha, -v[i] / dv[i]);
      }
      return alpha;
    };

    // Affine (predictor) step: rsz = S z.
    Vector rsz(mi);
    for (std::size_t r = 0; r < mi; ++r) rsz[r] = s[r] * z[r];
    Vector dx, dy, dz, ds;
    extract(solve_step(rsz), dx, dy, dz, ds);

    double sigma = 0.0;
    if (mi > 0) {
      const double alpha_p = max_step(s, ds);
      const double alpha_d = max_step(z, dz);
      double mu_aff = 0.0;
      for (std::size_t r = 0; r < mi; ++r) {
        mu_aff += (s[r] + alpha_p * ds[r]) * (z[r] + alpha_d * dz[r]);
      }
      mu_aff /= static_cast<double>(mi);
      sigma = mu > 0 ? std::pow(mu_aff / mu, 3.0) : 0.0;

      // Corrector: rsz = S z + ds_aff o dz_aff - sigma mu e.
      for (std::size_t r = 0; r < mi; ++r) rsz[r] = s[r] * z[r] + ds[r] * dz[r] - sigma * mu;
      extract(solve_step(rsz), dx, dy, dz, ds);
    }

    const double alpha_p = kStepFraction * max_step(s, ds);
    const double alpha_d = kStepFraction * max_step(z, dz);
    const double alpha = mi > 0 ? std::min(alpha_p, alpha_d) : 1.0;
    for (std::size_t j = 0; j < n; ++j) x[j] += alpha * dx[j];
    for (std::size_t r = 0; r < pe; ++r) y[r] += alpha * dy[r];
    for (std::size_t r = 0; r < mi; ++r) {
      s[r] += alpha * ds[r];
      z[r] += alpha * dz[r];
    }
  }

  // Map duals back to the two-sided convention.
  result.x = x;
  result.y.assign(m, 0.0);
  for (std::size_t r = 0; r < pe; ++r) result.y[equality_rows[r]] = y[r];
  for (std::size_t r = 0; r < mi; ++r) {
    const auto& row = inequality_rows[r];
    result.y[row.source_row] += row.is_upper ? z[r] : -z[r];
  }
  result.iterations = iteration;
  result.objective = problem.objective(x);
  result.primal_residual = problem.constraint_violation(x);
  {
    const Vector px = problem.p.multiply(x);
    const Vector aty = problem.a.multiply_transposed(result.y);
    double dual_res = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      dual_res = std::max(dual_res, std::abs(px[j] + problem.q[j] + aty[j]));
    }
    result.dual_residual = dual_res;
  }
  if (obs::recording_enabled() && result.status != SolveStatus::kOptimal) {
    obs::ConvergenceRecorder::local().push("ipm.unsolved", iteration, result.primal_residual,
                                           result.dual_residual,
                                           static_cast<double>(result.status));
    obs::ConvergenceRecorder::dump_failure("ipm.unsolved");
  }
  // One dense KKT factorization per Mehrotra iteration.
  result.info.factorizations = iteration;
  auto& registry = obs::Registry::global();
  if (registry.enabled()) {
    registry.counter("ipm.solves").add(1);
    registry.counter("ipm.iterations").add(iteration);
    registry.histogram("ipm.iterations_per_solve").record(iteration);
    registry.histogram("ipm.solve_ms").record(span.elapsed_ms());
  }
  if (obs::TelemetryFrame* frame = obs::timeline_frame()) {
    // Same solver-effort telemetry contract as AdmmSolver::solve.
    frame->solver_iterations += result.iterations;
    frame->solver_primal_residual = result.primal_residual;
    frame->solver_dual_residual = result.dual_residual;
    frame->solver_factorizations += result.info.factorizations;
  }
  return result;
}

}  // namespace gp::qp
