#include "qp/admm_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <utility>

#include "common/alloc_probe.hpp"
#include "common/error.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace gp::qp {

namespace {

using linalg::SparseLdlt;
using linalg::SparseMatrix;
using linalg::Vector;

constexpr double kAdmmRho = 0.1;                ///< initial step size for inequality rows
constexpr double kAdmmRhoEqualityScale = 1e3;   ///< equality rows use rho * this
constexpr double kAdmmAlpha = 1.6;              ///< over-relaxation in (0, 2)
constexpr double kAdmmEpsInfeasible = 1e-7;     ///< certificate tolerance
constexpr int kAdaptiveRhoInterval = 100;       ///< iterations between rho updates
constexpr double kAdaptiveRhoTolerance = 5.0;   ///< refactor when rho moves this much
constexpr int kScalingIterations = 10;          ///< Ruiz equilibration sweeps
constexpr double kPolishRegularization = 1e-9;  ///< +/- d on the reduced-KKT diagonal
constexpr int kPolishRefinementSteps = 3;       ///< iterative-refinement passes

/// Assembles the upper triangle of the quasi-definite KKT matrix
/// [[P + top I, A_S^T], [A_S, diag(bottom)]] directly in CSC (no triplet
/// sort). A_S keeps row i of A when slot[i] >= 0 and makes it column
/// n + slot[i]; an empty `slot` keeps every row in order. bottom[r] is the
/// diagonal of column n + r. Rows come out sorted per column: P's upper part
/// then its diagonal (P_jj + top, or top alone); then A_S's entries in
/// column order, then the diagonal, which is therefore each column's last.
SparseMatrix kkt_upper(const SparseMatrix& p, double top, const SparseMatrix& a,
                       std::span<const std::int32_t> slot, std::span<const double> bottom) {
  const std::int32_t n = p.rows();
  const auto k = static_cast<std::int32_t>(bottom.size());
  const auto p_col = p.col_ptr();
  const auto p_row = p.row_idx();
  const auto p_val = p.values();
  const auto a_col = a.col_ptr();
  const auto a_row = a.row_idx();
  const auto a_val = a.values();
  const auto column_of = [&](std::int32_t row) {
    return slot.empty() ? row : slot[static_cast<std::size_t>(row)];
  };

  std::vector<std::int32_t> col_ptr(static_cast<std::size_t>(n + k) + 1, 0);
  for (std::int32_t c = 0; c < n; ++c) {
    std::int32_t count = 1;  // the diagonal
    for (std::int32_t e = p_col[c]; e < p_col[c + 1]; ++e) count += p_row[e] < c ? 1 : 0;
    col_ptr[static_cast<std::size_t>(c) + 1] = count;
  }
  for (std::int32_t r = 0; r < k; ++r) col_ptr[static_cast<std::size_t>(n + r) + 1] = 1;
  for (std::int32_t e = 0; e < a_col[a.cols()]; ++e) {
    const std::int32_t r = column_of(a_row[e]);
    if (r >= 0) ++col_ptr[static_cast<std::size_t>(n + r) + 1];
  }
  for (std::size_t c = 0; c + 1 < col_ptr.size(); ++c) col_ptr[c + 1] += col_ptr[c];

  const auto nnz = static_cast<std::size_t>(col_ptr.back());
  std::vector<std::int32_t> row_idx(nnz);
  std::vector<double> values(nnz);
  for (std::int32_t c = 0; c < n; ++c) {
    auto slot_pos = static_cast<std::size_t>(col_ptr[static_cast<std::size_t>(c)]);
    double diagonal = top;
    for (std::int32_t e = p_col[c]; e < p_col[c + 1]; ++e) {
      if (p_row[e] < c) {
        row_idx[slot_pos] = p_row[e];
        values[slot_pos++] = p_val[e];
      } else if (p_row[e] == c) {
        diagonal = p_val[e] + top;
      }
    }
    row_idx[slot_pos] = c;
    values[slot_pos] = diagonal;
  }
  std::vector<std::int32_t> next(col_ptr.begin() + n, col_ptr.end() - 1);
  for (std::int32_t c = 0; c < a.cols(); ++c) {
    for (std::int32_t e = a_col[c]; e < a_col[c + 1]; ++e) {
      const std::int32_t r = column_of(a_row[e]);
      if (r < 0) continue;
      const auto pos = static_cast<std::size_t>(next[static_cast<std::size_t>(r)]++);
      row_idx[pos] = c;
      values[pos] = a_val[e];
    }
  }
  for (std::int32_t r = 0; r < k; ++r) {
    const auto pos = static_cast<std::size_t>(next[static_cast<std::size_t>(r)]);
    row_idx[pos] = n + r;
    values[pos] = bottom[static_cast<std::size_t>(r)];
  }
  return SparseMatrix::from_csc(n + k, n + k, std::move(col_ptr), std::move(row_idx),
                                std::move(values));
}

/// A polished point whose wrong-signed duals exceed this (relative to
/// 1 + ||q||_inf) is counted as admm.polish_wrong_sign: the acceptance test
/// compares only primal violation and stationarity, so such a point can win.
constexpr double kPolishDualSignTolerance = 1e-9;

}  // namespace

bool ActiveSetPolisher::polish(const QpProblem& problem, Vector& x, Vector& y) {
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  const SparseMatrix& a = problem.a;
  const auto a_col_ptr = a.col_ptr();
  const auto a_row_idx = a.row_idx();
  const auto a_values = a.values();
  const Vector ax = a.multiply(x);

  // Detect the active set from the duals (sign convention: y > 0 pushes on
  // the upper bound) with a primal confirmation. slot[i] is row i's position
  // in the reduced system, -1 when inactive.
  std::vector<std::int32_t> active_rows;
  std::vector<std::int32_t> slot(m, -1);
  std::vector<double> active_rhs;
  const auto activate = [&](std::size_t i, double rhs) {
    slot[i] = static_cast<std::int32_t>(active_rows.size());
    active_rows.push_back(static_cast<std::int32_t>(i));
    active_rhs.push_back(rhs);
  };
  for (std::size_t i = 0; i < m; ++i) {
    const bool equality = problem.lower[i] == problem.upper[i];
    const double span_tol =
        1e-6 * (1.0 + std::max(std::abs(problem.lower[i]), std::abs(problem.upper[i])));
    if (equality) {
      activate(i, problem.upper[i]);
    } else if (y[i] > 1e-10 && problem.upper[i] < kInfinity &&
               ax[i] > problem.upper[i] - 1e3 * span_tol) {
      activate(i, problem.upper[i]);
    } else if (y[i] < -1e-10 && problem.lower[i] > -kInfinity &&
               ax[i] < problem.lower[i] + 1e3 * span_tol) {
      activate(i, problem.lower[i]);
    }
  }
  const std::size_t k = active_rows.size();

  if (factored_ && active_rows == factored_rows_) {
    ++reuses_;  // identical reduced KKT matrix: keep its factorization
  } else {
    // Reduced KKT upper triangle [[P + dI, A_act^T], [A_act, -dI]]: active
    // row i of A becomes column n + slot[i].
    obs::Span factor_span("admm.polish.factor");
    const Vector bottom(k, -kPolishRegularization);
    const SparseMatrix kkt = kkt_upper(problem.p, kPolishRegularization, a, slot, bottom);
    ++factorizations_;
    factored_ = ldlt_.factor(kkt) == SparseLdlt::Status::kOk;
    if (!factored_) return false;
    factored_rows_ = active_rows;
  }

  // Solve with a few steps of iterative refinement against the UNregularized
  // system (the standard trick to cancel the d-perturbation).
  Vector rhs(n + k, 0.0);
  for (std::size_t j = 0; j < n; ++j) rhs[j] = -problem.q[j];
  for (std::size_t r = 0; r < k; ++r) rhs[n + r] = active_rhs[r];
  Vector solution = ldlt_.solve(rhs);
  for (int step = 0; step < kPolishRefinementSteps; ++step) {
    // residual = rhs - K_exact * solution, where K_exact has no +/-d terms.
    Vector residual = rhs;
    Vector xs(solution.begin(), solution.begin() + static_cast<std::ptrdiff_t>(n));
    Vector nu(solution.begin() + static_cast<std::ptrdiff_t>(n), solution.end());
    const Vector pxs = problem.p.multiply(xs);
    for (std::size_t j = 0; j < n; ++j) residual[j] -= pxs[j];
    // A_act^T nu contribution on the first block; A_act xs on the second.
    for (std::size_t c = 0; c < n; ++c) {
      for (std::int32_t e = a_col_ptr[c]; e < a_col_ptr[c + 1]; ++e) {
        const std::int32_t r = slot[static_cast<std::size_t>(a_row_idx[e])];
        if (r < 0) continue;
        residual[c] -= a_values[e] * nu[static_cast<std::size_t>(r)];
        residual[n + static_cast<std::size_t>(r)] -= a_values[e] * xs[c];
      }
    }
    const Vector correction = ldlt_.solve(residual);
    for (std::size_t i = 0; i < solution.size(); ++i) solution[i] += correction[i];
  }

  Vector x_polished(solution.begin(), solution.begin() + static_cast<std::ptrdiff_t>(n));
  Vector y_polished(m, 0.0);
  for (std::size_t r = 0; r < k; ++r) {
    y_polished[static_cast<std::size_t>(active_rows[r])] = solution[n + r];
  }
  // Accept only if the polished point is a strictly better KKT point by
  // primal violation and stationarity.
  const KktCertificate old_cert = kkt_certificate(problem, x, y);
  const KktCertificate new_cert = kkt_certificate(problem, x_polished, y_polished);
  if (std::max(new_cert.primal, new_cert.stationarity) <
      std::max(old_cert.primal, old_cert.stationarity)) {
    if (new_cert.dual_sign > kPolishDualSignTolerance * (1.0 + linalg::norm_inf(problem.q)) &&
        obs::metrics_enabled()) {
      // The dual-sign hole: the accepted point is not a KKT point.
      obs::Registry::global().counter("admm.polish_wrong_sign").add(1);
    }
    x = std::move(x_polished);
    y = std::move(y_polished);
    return true;
  }
  return false;
}

void AdmmWorkspace::resize(std::size_t n, std::size_t m) {
  x.assign(n, 0.0);
  z.assign(m, 0.0);
  y.assign(m, 0.0);
  rhs.assign(n + m, 0.0);
  z_tilde.assign(m, 0.0);
  z_candidate.assign(m, 0.0);
  z_next.assign(m, 0.0);
  ax.assign(m, 0.0);
  px.assign(n, 0.0);
  aty.assign(n, 0.0);
  delta_x.assign(n, 0.0);
  delta_y.assign(m, 0.0);
  at_dy.assign(n, 0.0);
  p_dx.assign(n, 0.0);
  a_dx.assign(m, 0.0);
  rho.assign(m, 0.0);
  y_over_rho.assign(m, 0.0);
  inv_d.assign(n, 0.0);
  inv_e.assign(m, 0.0);
}

QpResult AdmmSolver::solve(const QpProblem& original) {
  obs::Span span("admm.solve");
  ++cache_stats_.solves;
  QpResult result;
  bool solved = false;
  if (settings_.cache_structure && cache_matches(original)) {
    // Preserve the pending warm start so a (rare) numerical failure of the
    // cached setup can retry cold from the same starting point.
    const Vector pending_x = warm_x_;
    const Vector pending_y = warm_y_;
    result = solve_with(original, /*use_cache=*/true);
    if (result.status != SolveStatus::kNumericalError) {
      solved = true;
    } else {
      // The cached setup failed numerically (e.g. the refactorization hit a
      // zero pivot after a large parameter change): drop it and solve cold.
      invalidate_cache();
      warm_x_ = pending_x;
      warm_y_ = pending_y;
    }
  }
  if (!solved) result = solve_with(original, /*use_cache=*/false);

  if (obs::recording_enabled() && result.status != SolveStatus::kOptimal) {
    // Leave a terminal marker in the ring and append its tail to the
    // GEOPLACE_RECORD dump path (if one is set) — a failed solve inside a
    // sweep lane now carries its last check iterations with it.
    obs::ConvergenceRecorder::local().push("admm.unsolved", result.iterations,
                                           result.primal_residual, result.dual_residual,
                                           static_cast<double>(result.status));
    obs::ConvergenceRecorder::dump_failure("admm.unsolved");
  }
  if (obs::audit::enabled() && result.status == SolveStatus::kOptimal) {
    // Primal feasibility of the RETURNED (unscaled, possibly polished)
    // solution, against the OSQP-style tolerance the loop converged under.
    const double violation = original.constraint_violation(result.x);
    const linalg::Vector ax = original.a.multiply(result.x);
    const double tolerance =
        10.0 * (settings_.eps_abs + settings_.eps_rel * linalg::norm_inf(ax));
    obs::audit::check("qp_primal_feasibility", violation <= tolerance, violation, tolerance);
  }

  auto& registry = obs::Registry::global();
  if (registry.enabled()) {
    registry.counter("admm.solves").add(1);
    registry.counter("admm.iterations").add(result.iterations);
    registry.counter("admm.factorizations").add(result.info.factorizations);
    registry.counter("admm.structure_hits").add(result.info.cache_hits);
    if (result.info.factorization_skipped) {
      registry.counter("admm.factorizations_skipped").add(1);
    }
    registry.counter("admm.allocs").add(result.info.hot_loop_allocations);
    registry.counter("admm.spmv_ns").add(result.info.residual_spmv_ns);
    registry.histogram("admm.iterations_per_solve").record(result.iterations);
    registry.histogram("admm.solve_ms").record(span.elapsed_ms());
  }
  if (obs::TelemetryFrame* frame = obs::timeline_frame()) {
    // Solver-effort telemetry for the open simulation period: effort fields
    // accumulate (a period may run several solves), residuals keep the last
    // solve's values.
    frame->solver_iterations += result.iterations;
    frame->solver_primal_residual = result.primal_residual;
    frame->solver_dual_residual = result.dual_residual;
    frame->solver_factorizations += result.info.factorizations;
    frame->solver_cache_hits += result.info.cache_hits;
    if (result.info.factorization_skipped) frame->solver_factorization_skipped += 1.0;
  }
  return result;
}

bool AdmmSolver::cache_matches(const QpProblem& problem) const {
  if (!has_cache_) return false;
  if (problem.num_variables() != cached_scaling_.d.size() ||
      problem.num_constraints() != cached_scaling_.e.size()) {
    return false;
  }
  const auto same = [](std::span<const std::int32_t> a, const std::vector<std::int32_t>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  return same(problem.p.col_ptr(), cached_p_col_ptr_) &&
         same(problem.p.row_idx(), cached_p_row_idx_) &&
         same(problem.a.col_ptr(), cached_a_col_ptr_) &&
         same(problem.a.row_idx(), cached_a_row_idx_);
}

void AdmmSolver::invalidate_cache() {
  has_cache_ = false;
  cached_p_col_ptr_.clear();
  cached_p_row_idx_.clear();
  cached_a_col_ptr_.clear();
  cached_a_row_idx_.clear();
  cached_p_values_.clear();
  cached_a_values_.clear();
  cached_rho_.clear();
  cached_row_class_.clear();
}

QpResult AdmmSolver::solve_with(const QpProblem& original, bool use_cache) {
  original.validate();
  const std::size_t n = original.num_variables();
  const std::size_t m = original.num_constraints();

  QpProblem problem = original;  // scaled in place below
  Scaling scaling;
  if (use_cache) {
    // Structure hit: the cached equilibration stays a valid diagonal
    // scaling for the new data (solutions are unscaled exactly), so the
    // Ruiz sweeps are skipped.
    ++cache_stats_.structure_hits;
    scaling = cached_scaling_;
    if (settings_.scale_problem) apply_scaling(scaling, problem);
  } else if (settings_.scale_problem) {
    scaling = ruiz_equilibrate(problem, kScalingIterations);
    // Re-apply the FINAL scaling in one shot: the sweeps above scale
    // incrementally, which differs from apply_scaling() by rounding ulps.
    // Normalizing here makes the scaled data bitwise identical to what a
    // later cache hit computes, so the values-unchanged factorization skip
    // can fire on the very next solve.
    problem = original;
    apply_scaling(scaling, problem);
  } else {
    scaling = Scaling::identity(n, m);
  }

  // Size the solver-owned workspace (allocation-free when the shape is
  // unchanged — the receding-horizon case) and precompute the reciprocal
  // scalings the residual kernels consume.
  AdmmWorkspace& ws = workspace_;
  ws.resize(n, m);
  for (std::size_t j = 0; j < n; ++j) ws.inv_d[j] = 1.0 / scaling.d[j];
  for (std::size_t i = 0; i < m; ++i) ws.inv_e[i] = 1.0 / scaling.e[i];
  const double inv_c = 1.0 / scaling.cost_scale;

  // SELL mirrors of the scaled A and A^T: pattern built once per structure,
  // values refreshed in place on every later solve.
  if (a_sell_.pattern_matches(problem.a)) {
    a_sell_.update_values(problem.a);
  } else {
    a_sell_.build(problem.a);
  }
  if (at_sell_.pattern_matches(problem.a)) {
    at_sell_.update_values(problem.a);
  } else {
    at_sell_.build_transposed(problem.a);
  }

  // Per-row rho: stiffer on equality rows, zero-safe on free rows. When the
  // row classification is unchanged, a cache hit carries the previous
  // solve's (possibly adapted) rho forward so the factorization can be
  // reused or numerically refreshed without restarting the adaptation.
  std::vector<std::uint8_t> row_class(m);
  for (std::size_t i = 0; i < m; ++i) {
    const bool equality = problem.lower[i] == problem.upper[i];
    const bool unbounded = problem.lower[i] == -kInfinity && problem.upper[i] == kInfinity;
    row_class[i] = equality ? 1 : (unbounded ? 2 : 0);
  }
  Vector& rho = ws.rho;
  const bool reuse_rho = use_cache && row_class == cached_row_class_;
  if (reuse_rho) {
    rho = cached_rho_;
  } else {
    for (std::size_t i = 0; i < m; ++i) {
      if (row_class[i] == 1) {
        rho[i] = kAdmmRho * kAdmmRhoEqualityScale;
      } else if (row_class[i] == 2) {
        rho[i] = kAdmmRho * 1e-3;  // loose rows barely constrain
      } else {
        rho[i] = kAdmmRho;
      }
    }
  }

  QpResult result;
  result.status = SolveStatus::kMaxIterations;
  result.info.cache_hits = use_cache ? 1 : 0;

  // (P, A) equal to those of the cached solve. The cached scaling is in use,
  // so the scaled matrices are equal too.
  const bool matrices_unchanged = use_cache &&
                                  std::ranges::equal(original.p.values(), cached_p_values_) &&
                                  std::ranges::equal(original.a.values(), cached_a_values_);
  // The polish factorization is valid only for the matrices it was built
  // from, which are the cached ones while it is kept.
  if (!matrices_unchanged) polisher_.forget();

  SparseLdlt& kkt = kkt_;
  const bool values_unchanged =
      matrices_unchanged && reuse_rho && kkt.status() == SparseLdlt::Status::kOk;
  if (values_unchanged) {
    // Same scaled (P, A) and rho as the cached factorization: a pure
    // (q, lower, upper) parameter update. Reuse the factor outright.
    ++cache_stats_.factorizations_skipped;
    result.info.factorization_skipped = true;
  } else {
    obs::Span factor_span("admm.factor");
    // Kept as a member so the in-loop adaptive-rho refactorization can
    // rewrite the -1/rho diagonal in place instead of reassembling.
    Vector bottom(m);
    for (std::size_t i = 0; i < m; ++i) bottom[i] = -1.0 / rho[i];
    kkt_upper_ = kkt_upper(problem.p, kAdmmSigma, problem.a, {}, bottom);
    const SparseLdlt::Status status =
        use_cache ? kkt.refactor(kkt_upper_) : kkt.factor(kkt_upper_);
    if (use_cache) {
      ++cache_stats_.refactorizations;
    } else {
      ++cache_stats_.full_factorizations;
    }
    ++result.info.factorizations;
    if (status != SparseLdlt::Status::kOk) {
      result.status = SolveStatus::kNumericalError;
      return result;
    }
  }

  Vector& x = ws.x;  // zeroed by ws.resize above
  Vector& y = ws.y;
  // Warm start: scale the cached/pending unscaled iterate into the scaled
  // space of THIS problem (x_s = x / d, y_s = y * c / e) and set z = A x.
  if (warm_x_.size() == n && warm_y_.size() == m) {
    for (std::size_t j = 0; j < n; ++j) x[j] = warm_x_[j] / scaling.d[j];
    for (std::size_t i = 0; i < m; ++i) y[i] = warm_y_[i] * scaling.cost_scale / scaling.e[i];
    a_sell_.multiply_into(1.0, x, ws.z);
    linalg::project_box_into(ws.z, problem.lower, problem.upper, ws.z);
  }
  warm_x_.clear();
  warm_y_.clear();

  // --- Hot loop. Everything below reads/writes the workspace through the
  // fused kernels in linalg/vector_ops; after the sizing solve the loop
  // performs no heap allocation, adaptive-rho refactorizations included
  // (tracked by the alloc probe, with the flight recorder's first-sample ring
  // allocation excluded).
  const std::span<double> rhs_x(ws.rhs.data(), n);
  const std::span<const double> rhs_nu(ws.rhs.data() + n, m);
  auto& registry = obs::Registry::global();
  const bool time_spmv = registry.enabled();
  const long long allocs_at_loop_entry = gp::alloc_probe_count();
  long long excluded_allocs = 0;
  long long spmv_ns = 0;
  long long spmv_sections = 0;

  int iteration = 0;
  for (; iteration < settings_.max_iterations; ++iteration) {
    // Residual/certificate cadence, known up front: check iterations route
    // the x and y updates through the *_delta kernels, which produce the
    // certificate deltas as a by-product — so no previous-iterate copies
    // are ever made.
    const bool check = (iteration + 1) % settings_.check_interval == 0;

    // Build the KKT right-hand side.
    for (std::size_t j = 0; j < n; ++j) ws.rhs[j] = kAdmmSigma * x[j] - problem.q[j];
    // The y / rho quotients feed both the rhs here and the z-candidate step
    // below; form them once (rho only changes between iterations).
    for (std::size_t i = 0; i < m; ++i) {
      const double yr = y[i] / rho[i];
      ws.y_over_rho[i] = yr;
      ws.rhs[n + i] = ws.z[i] - yr;
    }
    kkt.solve_in_place(ws.rhs);

    // x~ = rhs[0..n), nu = rhs[n..n+m); z~ = z + (nu - y) / rho.
    linalg::admm_z_tilde(ws.z, rhs_nu, y, rho, ws.z_tilde);

    // Over-relaxed updates (delta-producing variants on check iterations,
    // bit-identical to the plain kernels).
    const double alpha = kAdmmAlpha;
    double delta_x_norm = 0.0;
    if (check) {
      delta_x_norm = linalg::axpby_delta(alpha, rhs_x, 1.0 - alpha, x, ws.delta_x);
    } else {
      linalg::axpby(alpha, rhs_x, 1.0 - alpha, x);
    }
    linalg::admm_z_candidate_cached(alpha, ws.z_tilde, ws.z, ws.y_over_rho, ws.z_candidate);
    linalg::project_box_into(ws.z_candidate, problem.lower, problem.upper, ws.z_next);
    double delta_y_norm = 0.0;
    if (check) {
      delta_y_norm = linalg::admm_dual_update_delta(rho, ws.z_candidate, ws.z_next, y,
                                                    ws.delta_y);
    } else {
      linalg::admm_dual_update(rho, ws.z_candidate, ws.z_next, y);
    }
    std::swap(ws.z, ws.z_next);

    if (!check) continue;

    // --- Residuals in UNSCALED quantities, via the SELL mirrors. ---
    std::chrono::steady_clock::time_point spmv_start{};
    if (time_spmv) spmv_start = std::chrono::steady_clock::now();
    a_sell_.multiply_into(1.0, x, ws.ax);
    std::fill(ws.px.begin(), ws.px.end(), 0.0);
    problem.p.multiply_accumulate(1.0, x, ws.px);
    at_sell_.multiply_into(1.0, y, ws.aty);
    if (time_spmv) {
      spmv_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - spmv_start)
                     .count();
      ++spmv_sections;
    }

    // One pass over the rows and one over the columns; bitwise equal to the
    // separate per-array reductions (max is exact, scaling is monotone).
    double prim_res = 0.0, prim_norm = 0.0;
    linalg::inf_norm_scaled_residual(ws.ax, ws.z, ws.inv_e, prim_res, prim_norm);
    double dual_res = 0.0, dual_norm = 0.0;
    linalg::inf_norm_scaled_residual3(ws.px, problem.q, ws.aty, ws.inv_d, inv_c, dual_res,
                                      dual_norm);

    const double eps_prim = settings_.eps_abs + settings_.eps_rel * prim_norm;
    const double eps_dual = settings_.eps_abs + settings_.eps_rel * dual_norm;
    result.primal_residual = prim_res;
    result.dual_residual = dual_res;
    if (obs::recording_enabled()) {
      // Flight-recorder sample at the check cadence. push() itself is
      // allocation-free; only the thread's FIRST recorded sample allocates
      // the ring (a recorder cost, not an iteration cost — excluded).
      const long long record_allocs_before = gp::alloc_probe_count();
      obs::ConvergenceRecorder::local().push("admm.residual", iteration + 1, prim_res,
                                             dual_res, rho.empty() ? 0.0 : rho[0]);
      excluded_allocs += gp::alloc_probe_count() - record_allocs_before;
    }

    if (prim_res <= eps_prim && dual_res <= eps_dual) {
      result.status = SolveStatus::kOptimal;
      ++iteration;
      break;
    }

    // --- Infeasibility certificates (on scaled deltas, normalized; the
    // deltas and their norms came out of the *_delta update kernels). ---
    if (delta_y_norm > kAdmmEpsInfeasible) {
      at_sell_.multiply_into(1.0, ws.delta_y, ws.at_dy);
      double support = 0.0;
      bool valid = true;
      for (std::size_t i = 0; i < m; ++i) {
        const double dy = ws.delta_y[i];
        if (dy > 0) {
          if (problem.upper[i] == kInfinity) { valid = false; break; }
          support += problem.upper[i] * dy;
        } else if (dy < 0) {
          if (problem.lower[i] == -kInfinity) { valid = false; break; }
          support += problem.lower[i] * dy;
        }
      }
      if (valid && linalg::norm_inf(ws.at_dy) <= kAdmmEpsInfeasible * delta_y_norm &&
          support <= -kAdmmEpsInfeasible * delta_y_norm) {
        result.status = SolveStatus::kPrimalInfeasible;
        ++iteration;
        break;
      }
    }
    if (delta_x_norm > kAdmmEpsInfeasible) {
      std::fill(ws.p_dx.begin(), ws.p_dx.end(), 0.0);
      problem.p.multiply_accumulate(1.0, ws.delta_x, ws.p_dx);
      a_sell_.multiply_into(1.0, ws.delta_x, ws.a_dx);
      const double q_dx = linalg::dot(problem.q, ws.delta_x);
      bool certificate = linalg::norm_inf(ws.p_dx) <= kAdmmEpsInfeasible * delta_x_norm &&
                         q_dx <= -kAdmmEpsInfeasible * delta_x_norm;
      if (certificate) {
        for (std::size_t i = 0; i < m && certificate; ++i) {
          const double v = ws.a_dx[i];
          if (problem.upper[i] != kInfinity && v > kAdmmEpsInfeasible * delta_x_norm) {
            certificate = false;
          }
          if (problem.lower[i] != -kInfinity && v < -kAdmmEpsInfeasible * delta_x_norm) {
            certificate = false;
          }
        }
        if (certificate) {
          result.status = SolveStatus::kDualInfeasible;
          ++iteration;
          break;
        }
      }
    }

    // --- Adaptive rho. ---
    if ((iteration + 1) % kAdaptiveRhoInterval == 0) {
      const double prim_ratio = prim_res / std::max(prim_norm, 1e-10);
      const double dual_ratio = dual_res / std::max(dual_norm, 1e-10);
      const double factor = std::sqrt(prim_ratio / std::max(dual_ratio, 1e-10));
      if (factor > kAdaptiveRhoTolerance || factor < 1.0 / kAdaptiveRhoTolerance) {
        const double rho_before = rho.empty() ? 0.0 : rho[0];
        for (std::size_t i = 0; i < m; ++i) {
          rho[i] = std::min(std::max(rho[i] * factor, 1e-6), 1e6);
        }
        if (obs::recording_enabled()) {
          const long long record_allocs_before = gp::alloc_probe_count();
          obs::ConvergenceRecorder::local().push("admm.rho", iteration + 1, rho_before,
                                                 rho.empty() ? 0.0 : rho[0], factor);
          excluded_allocs += gp::alloc_probe_count() - record_allocs_before;
        }
        // Rewrite the -1/rho diagonal of the cached KKT upper triangle in
        // place: the diagonal of column n+i is its LAST entry (all A^T-block
        // rows in that column are < n), so no triplet reassembly is needed.
        const auto kkt_col_ptr = kkt_upper_.col_ptr();
        const std::span<double> kkt_values = kkt_upper_.mutable_values();
        for (std::size_t i = 0; i < m; ++i) {
          kkt_values[static_cast<std::size_t>(kkt_col_ptr[n + i + 1]) - 1] = -1.0 / rho[i];
        }
        ++cache_stats_.refactorizations;
        ++result.info.factorizations;
        // Same pattern, same dimension: the refactorization reuses every
        // buffer of the last one and allocates nothing.
        const SparseLdlt::Status refactor_status = kkt.refactor(kkt_upper_);
        if (refactor_status != SparseLdlt::Status::kOk) {
          result.status = SolveStatus::kNumericalError;
          break;
        }
      }
    }
  }

  result.iterations = iteration;
  result.info.hot_loop_allocations =
      gp::alloc_probe_count() - allocs_at_loop_entry - excluded_allocs;
  result.info.residual_spmv_ns = spmv_ns;
  if (time_spmv && spmv_ns > 0 && spmv_sections > 0) {
    // Effective bandwidth of the residual-cadence SpMV section, using the
    // same per-product cost model as micro_admm_kernels' gbps() (12 bytes
    // per stored entry + 8 per input/output element, true nnz — SELL pads
    // are throughput, not work). bytes / ns == GB/s.
    const auto nnz_a = static_cast<double>(problem.a.nnz());
    const auto nnz_p = static_cast<double>(problem.p.nnz());
    const double dm = static_cast<double>(m);
    const double dn = static_cast<double>(n);
    const double bytes_per_section =
        2.0 * (12.0 * nnz_a + 8.0 * (dm + dn)) + 12.0 * nnz_p + 16.0 * dn;
    registry.gauge("admm.spmv_gb_s")
        .set(static_cast<double>(spmv_sections) * bytes_per_section /
             static_cast<double>(spmv_ns));
  }
  // Unscale the solution: x = D x_s, y = E y_s / c.
  result.x.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) result.x[j] = scaling.d[j] * x[j];
  result.y.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) result.y[i] = scaling.e[i] * y[i] / scaling.cost_scale;
  if (settings_.polish && result.status == SolveStatus::kOptimal) {
    obs::Span polish_span("admm.polish");
    if (polisher_.polish(original, result.x, result.y)) {
      const KktCertificate cert = kkt_certificate(original, result.x, result.y);
      result.primal_residual = cert.primal;
      result.dual_residual = cert.stationarity;
    }
    cache_stats_.polish_factorizations = polisher_.factorizations();
    cache_stats_.polish_reuses = polisher_.reuses();
  }
  result.objective = original.objective(result.x);
  if (settings_.auto_warm_start &&
      (result.status == SolveStatus::kOptimal || result.status == SolveStatus::kMaxIterations)) {
    warm_x_ = result.x;
    warm_y_ = result.y;
  }

  // Refresh the structure cache: patterns and values of the (unscaled)
  // input, which with the equilibration back kkt_'s current factorization,
  // and the final (possibly adapted) rho.
  if (settings_.cache_structure && kkt.status() == SparseLdlt::Status::kOk &&
      result.status != SolveStatus::kNumericalError) {
    has_cache_ = true;
    cached_p_col_ptr_.assign(original.p.col_ptr().begin(), original.p.col_ptr().end());
    cached_p_row_idx_.assign(original.p.row_idx().begin(), original.p.row_idx().end());
    cached_a_col_ptr_.assign(original.a.col_ptr().begin(), original.a.col_ptr().end());
    cached_a_row_idx_.assign(original.a.row_idx().begin(), original.a.row_idx().end());
    cached_p_values_.assign(original.p.values().begin(), original.p.values().end());
    cached_a_values_.assign(original.a.values().begin(), original.a.values().end());
    cached_scaling_ = std::move(scaling);
    cached_rho_.assign(rho.begin(), rho.end());  // rho aliases workspace_.rho
    cached_row_class_ = std::move(row_class);
  }
  return result;
}

void AdmmSolver::warm_start(Vector x, Vector y) {
  require(!x.empty(), "warm_start: empty primal");
  warm_x_ = std::move(x);
  warm_y_ = std::move(y);
}

}  // namespace gp::qp
