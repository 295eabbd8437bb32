// Scalar kernel tier: the portable reference implementations every vector
// tier must match bit for bit.
//
// The max-norm reductions run four independent running maxima and combine
// them at the end. A single running maximum is a loop-carried dependence of
// ~4-5 cycles per element (FP max cannot be auto-vectorized without
// -ffast-math because of its NaN ordering); four lanes make the loop
// throughput-bound instead. The reassociation is EXACT: max over
// non-negative values is associative and commutative and introduces no
// rounding, and NaN operands are dropped by std::max(best, x) in every lane
// exactly as in the single-chain loop — so results are bit-identical, and
// identical again under any other lane count (the vector tiers use 4 or 8).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "linalg/simd_kernels.hpp"

namespace gp::linalg::simd {
namespace {

double s_norm_inf(const double* a, std::size_t n) {
  double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = std::max(m0, std::abs(a[i]));
    m1 = std::max(m1, std::abs(a[i + 1]));
    m2 = std::max(m2, std::abs(a[i + 2]));
    m3 = std::max(m3, std::abs(a[i + 3]));
  }
  for (; i < n; ++i) m0 = std::max(m0, std::abs(a[i]));
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

void s_inf_norm_scaled_residual(const double* a, const double* b, const double* scale,
                                std::size_t n, double* res, double* norm) {
  double r0 = 0.0, r1 = 0.0, r2 = 0.0, r3 = 0.0;
  double n0 = 0.0, n1 = 0.0, n2 = 0.0, n3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    r0 = std::max(r0, std::abs(a[i] - b[i]) * scale[i]);
    r1 = std::max(r1, std::abs(a[i + 1] - b[i + 1]) * scale[i + 1]);
    r2 = std::max(r2, std::abs(a[i + 2] - b[i + 2]) * scale[i + 2]);
    r3 = std::max(r3, std::abs(a[i + 3] - b[i + 3]) * scale[i + 3]);
    n0 = std::max(n0, std::max(std::abs(a[i]), std::abs(b[i])) * scale[i]);
    n1 = std::max(n1, std::max(std::abs(a[i + 1]), std::abs(b[i + 1])) * scale[i + 1]);
    n2 = std::max(n2, std::max(std::abs(a[i + 2]), std::abs(b[i + 2])) * scale[i + 2]);
    n3 = std::max(n3, std::max(std::abs(a[i + 3]), std::abs(b[i + 3])) * scale[i + 3]);
  }
  for (; i < n; ++i) {
    r0 = std::max(r0, std::abs(a[i] - b[i]) * scale[i]);
    n0 = std::max(n0, std::max(std::abs(a[i]), std::abs(b[i])) * scale[i]);
  }
  *res = std::max(std::max(r0, r1), std::max(r2, r3));
  *norm = std::max(std::max(n0, n1), std::max(n2, n3));
}

void s_inf_norm_scaled_residual3(const double* a, const double* b, const double* c,
                                 const double* scale, double post, std::size_t n, double* res,
                                 double* norm) {
  double r0 = 0.0, r1 = 0.0, r2 = 0.0, r3 = 0.0;
  double n0 = 0.0, n1 = 0.0, n2 = 0.0, n3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    r0 = std::max(r0, std::abs(a[i] + b[i] + c[i]) * scale[i] * post);
    r1 = std::max(r1, std::abs(a[i + 1] + b[i + 1] + c[i + 1]) * scale[i + 1] * post);
    r2 = std::max(r2, std::abs(a[i + 2] + b[i + 2] + c[i + 2]) * scale[i + 2] * post);
    r3 = std::max(r3, std::abs(a[i + 3] + b[i + 3] + c[i + 3]) * scale[i + 3] * post);
    n0 = std::max(n0, std::max(std::max(std::abs(a[i]), std::abs(b[i])), std::abs(c[i])) *
                          scale[i]);
    n1 = std::max(n1,
                  std::max(std::max(std::abs(a[i + 1]), std::abs(b[i + 1])),
                           std::abs(c[i + 1])) *
                      scale[i + 1]);
    n2 = std::max(n2,
                  std::max(std::max(std::abs(a[i + 2]), std::abs(b[i + 2])),
                           std::abs(c[i + 2])) *
                      scale[i + 2]);
    n3 = std::max(n3,
                  std::max(std::max(std::abs(a[i + 3]), std::abs(b[i + 3])),
                           std::abs(c[i + 3])) *
                      scale[i + 3]);
  }
  for (; i < n; ++i) {
    r0 = std::max(r0, std::abs(a[i] + b[i] + c[i]) * scale[i] * post);
    n0 = std::max(n0, std::max(std::max(std::abs(a[i]), std::abs(b[i])), std::abs(c[i])) *
                          scale[i]);
  }
  *res = std::max(std::max(r0, r1), std::max(r2, r3));
  // max-then-scale equals scale-then-max bitwise for post > 0 (monotone
  // rounding), matching the unfused per-element |.| * scale * post form.
  *norm = std::max(std::max(n0, n1), std::max(n2, n3)) * post;
}

void s_axpby(double av, const double* x, double bv, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = av * x[i] + bv * y[i];
}

double s_axpby_delta(double av, const double* src, double bv, double* x, double* delta,
                     std::size_t n) {
  double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double n0 = av * src[i] + bv * x[i];
    const double n1 = av * src[i + 1] + bv * x[i + 1];
    const double n2 = av * src[i + 2] + bv * x[i + 2];
    const double n3 = av * src[i + 3] + bv * x[i + 3];
    delta[i] = n0 - x[i];
    delta[i + 1] = n1 - x[i + 1];
    delta[i + 2] = n2 - x[i + 2];
    delta[i + 3] = n3 - x[i + 3];
    x[i] = n0;
    x[i + 1] = n1;
    x[i + 2] = n2;
    x[i + 3] = n3;
    m0 = std::max(m0, std::abs(delta[i]));
    m1 = std::max(m1, std::abs(delta[i + 1]));
    m2 = std::max(m2, std::abs(delta[i + 2]));
    m3 = std::max(m3, std::abs(delta[i + 3]));
  }
  for (; i < n; ++i) {
    const double next = av * src[i] + bv * x[i];
    delta[i] = next - x[i];
    x[i] = next;
    m0 = std::max(m0, std::abs(delta[i]));
  }
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

void s_project_box_into(const double* x, const double* lo, const double* hi, double* out,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::min(std::max(x[i], lo[i]), hi[i]);
}

void s_admm_z_tilde(const double* z, const double* nu, const double* y, const double* rho,
                    double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = z[i] + (nu[i] - y[i]) / rho[i];
}

void s_admm_z_candidate_cached(double alpha, const double* z_tilde, const double* z,
                               const double* y_over_rho, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = alpha * z_tilde[i] + (1.0 - alpha) * z[i] + y_over_rho[i];
  }
}

void s_admm_dual_update(const double* rho, const double* zc, const double* zn, double* y,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = rho[i] * (zc[i] - zn[i]);
}

double s_admm_dual_update_delta(const double* rho, const double* zc, const double* zn,
                                double* y, double* delta, std::size_t n) {
  double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double n0 = rho[i] * (zc[i] - zn[i]);
    const double n1 = rho[i + 1] * (zc[i + 1] - zn[i + 1]);
    const double n2 = rho[i + 2] * (zc[i + 2] - zn[i + 2]);
    const double n3 = rho[i + 3] * (zc[i + 3] - zn[i + 3]);
    delta[i] = n0 - y[i];
    delta[i + 1] = n1 - y[i + 1];
    delta[i + 2] = n2 - y[i + 2];
    delta[i + 3] = n3 - y[i + 3];
    y[i] = n0;
    y[i + 1] = n1;
    y[i + 2] = n2;
    y[i + 3] = n3;
    m0 = std::max(m0, std::abs(delta[i]));
    m1 = std::max(m1, std::abs(delta[i + 1]));
    m2 = std::max(m2, std::abs(delta[i + 2]));
    m3 = std::max(m3, std::abs(delta[i + 3]));
  }
  for (; i < n; ++i) {
    const double next = rho[i] * (zc[i] - zn[i]);
    delta[i] = next - y[i];
    y[i] = next;
    m0 = std::max(m0, std::abs(delta[i]));
  }
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

// Scalar SELL SpMV: the portable reference the vector tiers match bit for
// bit (identical per-lane term sequences; the pads contribute ±0 no-ops).
// The chunk's eight row accumulators advance together, entry j of every
// lane before entry j + 1, so the eight add chains overlap instead of
// running back to back; each lane's own sequence is unchanged.
void s_sell_multiply_into(const SellView& m, double alpha, const double* x, double* y) {
  for (std::int32_t c = 0; c < m.num_chunks; ++c) {
    const std::int64_t base = m.chunk_ptr[c];
    const std::int64_t width = (m.chunk_ptr[c + 1] - base) / kSellChunk;
    double acc[kSellChunk] = {};
    for (std::int64_t j = 0; j < width; ++j) {
      const std::int64_t e = base + j * kSellChunk;
      for (int l = 0; l < kSellChunk; ++l) {
        const double xc = alpha * x[m.col_idx[e + l]];
        acc[l] += m.values[e + l] * xc;
      }
    }
    const std::int32_t r0 = c * kSellChunk;
    const std::int32_t live = std::min<std::int32_t>(kSellChunk, m.rows - r0);
    for (std::int32_t l = 0; l < live; ++l) y[r0 + l] = acc[l];
  }
}

// out[i] = -log(u[i]) / rate for u in [2^-1022, 1] (normal, positive —
// uniforms from Rng::uniform never leave that range). fdlibm's e_log with
// its branches folded into one path: the hfsq form (fdlibm's more accurate
// one) for every f, and k = 0 handled by the k * ln2 terms being exact
// zeros. -log is formed as ((hfsq - inner) - f) - k * ln2_hi, the exact
// negation of fdlibm's k * ln2_hi - ((hfsq - inner) - f). The vector tiers
// run this sequence of IEEE operations verbatim, lane by lane.
void s_neg_log_div(const double* u, double rate, double* out, std::size_t n) {
  using namespace logc;
  const bool unit_rate = rate == 1.0;  // x / 1.0 == x exactly: skip the divide
  for (std::size_t i = 0; i < n; ++i) {
    const auto bits = std::bit_cast<std::uint64_t>(u[i]);
    const std::uint64_t mantissa = bits & kMantissaMask;
    const std::uint64_t halved = (mantissa + kSqrt2Carry) & kImplicitBit;
    const double x = std::bit_cast<double>(mantissa | (halved ^ kOneBits));
    const std::uint64_t k_field = (((bits & kExponentMask) + halved) >> 52) | kMagicBits;
    const double k = std::bit_cast<double>(k_field) - kMagicBias;
    const double f = x - 1.0;
    const double s = f / (2.0 + f);
    const double z = s * s;
    const double w = z * z;
    const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
    const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
    const double r = t2 + t1;
    const double hfsq = 0.5 * f * f;
    const double inner = s * (hfsq + r) + k * kLn2Lo;
    const double neg_log = ((hfsq - inner) - f) - k * kLn2Hi;
    out[i] = unit_rate ? neg_log : neg_log / rate;
  }
}

}  // namespace

const KernelTable& scalar_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.norm_inf = &s_norm_inf;
    t.inf_norm_scaled_residual = &s_inf_norm_scaled_residual;
    t.inf_norm_scaled_residual3 = &s_inf_norm_scaled_residual3;
    t.axpby = &s_axpby;
    t.axpby_delta = &s_axpby_delta;
    t.project_box_into = &s_project_box_into;
    t.admm_z_tilde = &s_admm_z_tilde;
    t.admm_z_candidate_cached = &s_admm_z_candidate_cached;
    t.admm_dual_update = &s_admm_dual_update;
    t.admm_dual_update_delta = &s_admm_dual_update_delta;
    t.sell_multiply_into = &s_sell_multiply_into;
    t.neg_log_div = &s_neg_log_div;
    return t;
  }();
  return table;
}

}  // namespace gp::linalg::simd
