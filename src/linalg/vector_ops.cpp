#include "linalg/vector_ops.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "linalg/simd_kernels.hpp"

// Every kernel with a vectorized variant routes through the active tier's
// table (simd_dispatch.hpp): one relaxed atomic load plus an indirect call,
// amortized over the O(n) loop. The scalar tier lives in
// simd_kernels_scalar.cpp; the AVX2/AVX-512 tiers are bit-identical to it
// for every kernel.

namespace gp::linalg {

double dot(std::span<const double> a, std::span<const double> b) {
  require(a.size() == b.size(), "dot: size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) total += a[i] * b[i];
  return total;
}

double norm_inf(std::span<const double> a) {
  return simd::kernels().norm_inf(a.data(), a.size());
}

void scale(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

Vector add(std::span<const double> a, std::span<const double> b) {
  require(a.size() == b.size(), "add: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector sub(std::span<const double> a, std::span<const double> b) {
  require(a.size() == b.size(), "sub: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector project_box(std::span<const double> x, std::span<const double> lo,
                   std::span<const double> hi) {
  require(x.size() == lo.size() && x.size() == hi.size(), "project_box: size mismatch");
  Vector out(x.size());
  project_box_into(x, lo, hi, out);
  return out;
}

void axpby(double a, std::span<const double> x, double b, std::span<double> y) {
  require(x.size() == y.size(), "axpby: size mismatch");
  simd::kernels().axpby(a, x.data(), b, y.data(), x.size());
}

void project_box_into(std::span<const double> x, std::span<const double> lo,
                      std::span<const double> hi, std::span<double> out) {
  require(x.size() == lo.size() && x.size() == hi.size() && x.size() == out.size(),
          "project_box_into: size mismatch");
  simd::kernels().project_box_into(x.data(), lo.data(), hi.data(), out.data(), x.size());
}

void inf_norm_scaled_residual(std::span<const double> a, std::span<const double> b,
                              std::span<const double> scale, double& res, double& norm) {
  require(a.size() == b.size() && a.size() == scale.size(),
          "inf_norm_scaled_residual: size mismatch");
  simd::kernels().inf_norm_scaled_residual(a.data(), b.data(), scale.data(), a.size(), &res,
                                           &norm);
}

void inf_norm_scaled_residual3(std::span<const double> a, std::span<const double> b,
                               std::span<const double> c, std::span<const double> scale,
                               double post, double& res, double& norm) {
  require(a.size() == b.size() && a.size() == c.size() && a.size() == scale.size(),
          "inf_norm_scaled_residual3: size mismatch");
  simd::kernels().inf_norm_scaled_residual3(a.data(), b.data(), c.data(), scale.data(), post,
                                            a.size(), &res, &norm);
}

void admm_z_tilde(std::span<const double> z, std::span<const double> nu,
                  std::span<const double> y, std::span<const double> rho,
                  std::span<double> out) {
  require(z.size() == nu.size() && z.size() == y.size() && z.size() == rho.size() &&
              z.size() == out.size(),
          "admm_z_tilde: size mismatch");
  simd::kernels().admm_z_tilde(z.data(), nu.data(), y.data(), rho.data(), out.data(),
                               z.size());
}

void admm_z_candidate(double alpha, std::span<const double> z_tilde,
                      std::span<const double> z, std::span<const double> y,
                      std::span<const double> rho, std::span<double> out) {
  require(z_tilde.size() == z.size() && z_tilde.size() == y.size() &&
              z_tilde.size() == rho.size() && z_tilde.size() == out.size(),
          "admm_z_candidate: size mismatch");
  for (std::size_t i = 0; i < z.size(); ++i) {
    out[i] = alpha * z_tilde[i] + (1.0 - alpha) * z[i] + y[i] / rho[i];
  }
}

void admm_z_candidate_cached(double alpha, std::span<const double> z_tilde,
                             std::span<const double> z,
                             std::span<const double> y_over_rho, std::span<double> out) {
  require(z_tilde.size() == z.size() && z_tilde.size() == y_over_rho.size() &&
              z_tilde.size() == out.size(),
          "admm_z_candidate_cached: size mismatch");
  simd::kernels().admm_z_candidate_cached(alpha, z_tilde.data(), z.data(), y_over_rho.data(),
                                          out.data(), z.size());
}

void admm_dual_update(std::span<const double> rho, std::span<const double> z_candidate,
                      std::span<const double> z_next, std::span<double> y) {
  require(rho.size() == z_candidate.size() && rho.size() == z_next.size() &&
              rho.size() == y.size(),
          "admm_dual_update: size mismatch");
  simd::kernels().admm_dual_update(rho.data(), z_candidate.data(), z_next.data(), y.data(),
                                   y.size());
}

double axpby_delta(double a, std::span<const double> src, double b, std::span<double> x,
                   std::span<double> delta) {
  require(src.size() == x.size() && src.size() == delta.size(),
          "axpby_delta: size mismatch");
  return simd::kernels().axpby_delta(a, src.data(), b, x.data(), delta.data(), x.size());
}

double admm_dual_update_delta(std::span<const double> rho, std::span<const double> z_candidate,
                              std::span<const double> z_next, std::span<double> y,
                              std::span<double> delta) {
  require(rho.size() == z_candidate.size() && rho.size() == z_next.size() &&
              rho.size() == y.size() && rho.size() == delta.size(),
          "admm_dual_update_delta: size mismatch");
  return simd::kernels().admm_dual_update_delta(rho.data(), z_candidate.data(), z_next.data(),
                                                y.data(), delta.data(), y.size());
}

void neg_log_div(std::span<const double> u, double rate, std::span<double> out) {
  require(u.size() == out.size(), "neg_log_div: size mismatch");
  require(rate > 0.0, "neg_log_div: rate must be > 0");
  simd::kernels().neg_log_div(u.data(), rate, out.data(), u.size());
}

}  // namespace gp::linalg
