#include "qp/ipm_solver.hpp"

#include <algorithm>
#include <cmath>

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

/// Zero-and-scatter a CSC matrix into preallocated dense storage — the
/// allocation-free equivalent of SparseMatrix::to_dense().
void scatter_dense(const linalg::SparseMatrix& a, DenseMatrix& out) {
  for (std::size_t r = 0; r < out.rows(); ++r) {
    const auto row = out.row(r);
    std::fill(row.begin(), row.end(), 0.0);
  }
  const auto col_ptr = a.col_ptr();
  const auto row_idx = a.row_idx();
  const auto values = a.values();
  for (std::int32_t c = 0; c < a.cols(); ++c) {
    for (std::int32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      out(static_cast<std::size_t>(row_idx[p]), static_cast<std::size_t>(c)) = values[p];
    }
  }
}

}  // namespace

bool IpmSolver::cache_matches(const QpProblem& problem,
                              const std::vector<std::uint8_t>& row_kind) const {
  if (!has_cache_ || row_kind != cached_row_kind_) return false;
  const auto same = [](std::span<const std::int32_t> a, const std::vector<std::int32_t>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  return same(problem.p.col_ptr(), cached_p_col_ptr_) &&
         same(problem.p.row_idx(), cached_p_row_idx_) &&
         same(problem.a.col_ptr(), cached_a_col_ptr_) &&
         same(problem.a.row_idx(), cached_a_row_idx_);
}

void IpmSolver::invalidate_cache() {
  has_cache_ = false;
  cached_p_col_ptr_.clear();
  cached_p_row_idx_.clear();
  cached_a_col_ptr_.clear();
  cached_a_row_idx_.clear();
  cached_row_kind_.clear();
}

void IpmSolver::rebuild_structure(const QpProblem& problem,
                                  std::vector<std::uint8_t> row_kind) {
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  equality_rows_.clear();
  inequality_rows_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    if (row_kind[i] == 1) {
      equality_rows_.push_back(i);
      continue;
    }
    if ((row_kind[i] & 2) != 0) inequality_rows_.push_back({i, true});
    if ((row_kind[i] & 4) != 0) inequality_rows_.push_back({i, false});
  }
  a_dense_ = DenseMatrix(m, n);
  p_dense_ = DenseMatrix(n, n);
  e_mat_ = DenseMatrix(equality_rows_.size(), n);
  g_mat_ = DenseMatrix(inequality_rows_.size(), n);
  f_.assign(equality_rows_.size(), 0.0);
  h_.assign(inequality_rows_.size(), 0.0);
  cached_p_col_ptr_.assign(problem.p.col_ptr().begin(), problem.p.col_ptr().end());
  cached_p_row_idx_.assign(problem.p.row_idx().begin(), problem.p.row_idx().end());
  cached_a_col_ptr_.assign(problem.a.col_ptr().begin(), problem.a.col_ptr().end());
  cached_a_row_idx_.assign(problem.a.row_idx().begin(), problem.a.row_idx().end());
  cached_row_kind_ = std::move(row_kind);
  has_cache_ = true;
}

void IpmSolver::refresh_values(const QpProblem& problem) {
  const std::size_t n = problem.num_variables();
  scatter_dense(problem.a, a_dense_);
  scatter_dense(problem.p, p_dense_);
  for (std::size_t r = 0; r < equality_rows_.size(); ++r) {
    const std::size_t src = equality_rows_[r];
    for (std::size_t c = 0; c < n; ++c) e_mat_(r, c) = a_dense_(src, c);
    f_[r] = problem.upper[src];
  }
  for (std::size_t r = 0; r < inequality_rows_.size(); ++r) {
    const auto& row = inequality_rows_[r];
    const double sign = row.is_upper ? 1.0 : -1.0;
    for (std::size_t c = 0; c < n; ++c) g_mat_(r, c) = sign * a_dense_(row.source_row, c);
    h_[r] = row.is_upper ? problem.upper[row.source_row] : -problem.lower[row.source_row];
  }
}

QpResult IpmSolver::solve(const QpProblem& problem) {
  obs::Span span("ipm.solve");
  problem.validate();
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();

  // --- Split the two-sided rows into equalities and one-sided inequalities,
  // reusing the cached dense materializations when the structure (sparsity
  // patterns + bound classification) is unchanged; only values are refreshed
  // then. A bound flipping between equality / one-sided / free rebuilds.
  std::vector<std::uint8_t> row_kind(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (problem.lower[i] == problem.upper[i]) {
      row_kind[i] = 1;
    } else {
      row_kind[i] = static_cast<std::uint8_t>((problem.upper[i] < kInfinity ? 2 : 0) |
                                              (problem.lower[i] > -kInfinity ? 4 : 0));
    }
  }
  const bool structure_hit = cache_matches(problem, row_kind);
  if (!structure_hit) rebuild_structure(problem, std::move(row_kind));
  refresh_values(problem);

  const std::vector<std::size_t>& equality_rows = equality_rows_;
  const std::vector<InequalityRow>& inequality_rows = inequality_rows_;
  const std::size_t pe = equality_rows.size();
  const std::size_t mi = inequality_rows.size();
  const DenseMatrix& e_mat = e_mat_;
  const DenseMatrix& g_mat = g_mat_;
  const DenseMatrix& p_dense = p_dense_;
  const Vector& f = f_;
  const Vector& h = h_;

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
  // One dense KKT factorization per Mehrotra iteration; the structure cache
  // only saves the setup materializations, never a factor.
  result.info.factorizations = iteration;
  result.info.cache_hits = structure_hit ? 1 : 0;
  auto& registry = obs::Registry::global();
  if (registry.enabled()) {
    registry.counter("ipm.solves").add(1);
    registry.counter("ipm.structure_hits").add(structure_hit ? 1 : 0);
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
    frame->solver_cache_hits += result.info.cache_hits;
  }
  return result;
}

}  // namespace gp::qp
