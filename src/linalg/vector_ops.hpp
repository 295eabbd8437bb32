// Free-function kernels on dense vectors (std::vector<double>).
//
// The library represents dense vectors as plain std::vector<double>; these
// kernels are the shared BLAS-1 layer for the dense and sparse solvers.
#pragma once

#include <span>
#include <vector>

namespace gp::linalg {

using Vector = std::vector<double>;

/// Dot product. Requires equal sizes. Single accumulation chain: the result
/// is the portable reference every build and SIMD tier reproduces exactly.
double dot(std::span<const double> a, std::span<const double> b);

/// Infinity norm (max |a_i|); 0 for empty input.
double norm_inf(std::span<const double> a);

/// x *= alpha.
void scale(double alpha, std::span<double> x);

/// Element-wise out = a + b.
Vector add(std::span<const double> a, std::span<const double> b);

/// Element-wise out = a - b.
Vector sub(std::span<const double> a, std::span<const double> b);

/// Element-wise projection of x onto the box [lo, hi] (vectors of equal
/// size). Named distinctly from std::clamp, which ADL would otherwise find
/// for std::vector arguments and clamp lexicographically.
Vector project_box(std::span<const double> x, std::span<const double> lo,
                   std::span<const double> hi);

// ---------------------------------------------------------------------------
// Fused single-pass kernels for the ADMM hot loop (qp/admm_solver). Each one
// is the literal element-wise expression of the scalar loop it replaces, so
// results are BIT-identical to the unfused path — a requirement of the
// deterministic-parallelism contract (DESIGN.md §6). All write into
// caller-owned storage; none allocates.
// ---------------------------------------------------------------------------

/// y = a * x + b * y (one pass; the ADMM over-relaxed x update with
/// a = alpha, b = 1 - alpha). Requires equal sizes.
void axpby(double a, std::span<const double> x, double b, std::span<double> y);

/// Allocation-free project_box: out = clamp(x, lo, hi) element-wise.
void project_box_into(std::span<const double> x, std::span<const double> lo,
                      std::span<const double> hi, std::span<double> out);

/// One-pass primal-residual pair: res = max_i |a_i - b_i| * scale_i and
/// norm = max_i max(|a_i| * scale_i, |b_i| * scale_i). Exactly the two maxima
/// the ADMM termination check needs over (Ax, z), computed reading each input
/// once instead of three times.
void inf_norm_scaled_residual(std::span<const double> a, std::span<const double> b,
                              std::span<const double> scale, double& res, double& norm);

/// One-pass dual-residual pair: res = max_i |a_i + b_i + c_i| * scale_i * post
/// and norm = max_i max(|a_i|, |b_i|, |c_i|) * scale_i, scaled by post after
/// the reduction (max-then-scale equals scale-then-max bitwise for post > 0:
/// rounding under multiplication by a positive constant is monotone).
void inf_norm_scaled_residual3(std::span<const double> a, std::span<const double> b,
                               std::span<const double> c, std::span<const double> scale,
                               double post, double& res, double& norm);

/// out = z + (nu - y) / rho — the z~ step of the ADMM iteration.
void admm_z_tilde(std::span<const double> z, std::span<const double> nu,
                  std::span<const double> y, std::span<const double> rho,
                  std::span<double> out);

/// out = alpha * z_tilde + (1 - alpha) * z + y / rho — the over-relaxed
/// three-term z candidate.
void admm_z_candidate(double alpha, std::span<const double> z_tilde,
                      std::span<const double> z, std::span<const double> y,
                      std::span<const double> rho, std::span<double> out);

/// admm_z_candidate with the y / rho quotients already computed (the KKT
/// right-hand side build forms the same quotients earlier in the iteration;
/// reusing them drops one full vector of divisions per iteration, and the
/// result is bit-identical because it is the same operation on the same
/// operands).
void admm_z_candidate_cached(double alpha, std::span<const double> z_tilde,
                             std::span<const double> z,
                             std::span<const double> y_over_rho, std::span<double> out);

/// y = rho * (z_candidate - z_next) — the ADMM dual update.
void admm_dual_update(std::span<const double> rho, std::span<const double> z_candidate,
                      std::span<const double> z_next, std::span<double> y);

/// axpby fused with the certificate delta: x <- a * src + b * x,
/// delta = x_new - x_old, returns ||delta||_inf. Bit-identical to running
/// axpby, then subtracting a saved copy of the old iterate — without the
/// copy or the extra pass. For residual-check iterations.
double axpby_delta(double a, std::span<const double> src, double b, std::span<double> x,
                   std::span<double> delta);

/// admm_dual_update fused with the certificate delta: y <- rho * (zc - zn),
/// delta = y_new - y_old, returns ||delta||_inf. Same contract as
/// axpby_delta. For residual-check iterations.
double admm_dual_update_delta(std::span<const double> rho, std::span<const double> z_candidate,
                              std::span<const double> z_next, std::span<double> y,
                              std::span<double> delta);

/// out[i] = -log(u[i]) / rate: the exponential draw of Rng::exponential over
/// a batch of its uniforms. u must lie in [2^-1022, 1] (Rng::uniform with the
/// u <= 0 redraw never leaves it) and rate must be > 0; out may alias u. The
/// log is fdlibm's e_log reduction and polynomial, run as one IEEE operation
/// sequence on every tier, so results are BIT-identical across tiers. The
/// log is within 1 ulp of std::log (u = 1 gives +0, not -0); one correctly
/// rounded divide by rate follows, so out[i] is within 2 ulp of
/// -std::log(u[i]) / rate, and within 1 ulp at rate 1.
void neg_log_div(std::span<const double> u, double rate, std::span<double> out);

}  // namespace gp::linalg
