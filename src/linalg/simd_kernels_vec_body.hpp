// Width-generic bodies for the vectorized kernel tiers. Included ONLY by the
// per-ISA translation units (simd_kernels_avx2.cpp, simd_kernels_avx512.cpp),
// each of which supplies a trait struct V:
//
//   struct V {
//     using vec = ...;                       // native vector of doubles
//     static constexpr std::size_t width;    // lanes per vector
//     static vec load(const double*);        // unaligned
//     static void store(double*, vec);       // unaligned
//     static vec broadcast(double); static vec zero();
//     static vec add(vec, vec); static vec sub(vec, vec);
//     static vec mul(vec, vec); static vec div(vec, vec);
//     static vec abs(vec);                   // clears the sign bit
//     static vec max_std(vec a, vec b);      // per-lane std::max(a, b)
//     static vec min_std(vec a, vec b);      // per-lane std::min(a, b)
//     static vec gather(const double* base, const std::int32_t* idx);
//     static double reduce_max(vec);         // exact (lanes are never -0)
//     // Integer ops on the lanes' 64-bit patterns (neg_log_div only):
//     static vec from_bits(std::uint64_t);   // broadcast a bit pattern
//     static vec bit_and(vec, vec); static vec bit_or(vec, vec);
//     static vec bit_xor(vec, vec);
//     static vec int_add(vec, vec);          // 64-bit integer add
//     template <int kShift> static vec shift_right(vec);  // 64-bit logical
//   };
//
// Bit-identity contract: every kernel here computes, per element, the same
// IEEE operation sequence as the scalar tier, and reduces maxima over the
// same candidate set. Max over values that are never -0 (all lanes start at
// +0 and only non-negative candidates can replace them) is exact and
// partition-independent, so W-lane accumulators reduce to the same bits as
// the scalar code's 4 lanes. The TUs compile with -ffp-contract=off:
// a fused multiply-add would change rounding and break the contract.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "linalg/simd_kernels.hpp"

namespace gp::linalg::simd {

template <class V>
double norm_inf_t(const double* a, std::size_t n) {
  typename V::vec m = V::zero();
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) m = V::max_std(m, V::abs(V::load(a + i)));
  double best = V::reduce_max(m);
  for (; i < n; ++i) best = std::max(best, std::abs(a[i]));
  return best;
}

template <class V>
void inf_norm_scaled_residual_t(const double* a, const double* b, const double* scale,
                                std::size_t n, double* res, double* norm) {
  typename V::vec mr = V::zero();
  typename V::vec mn = V::zero();
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    const typename V::vec va = V::load(a + i);
    const typename V::vec vb = V::load(b + i);
    const typename V::vec vs = V::load(scale + i);
    mr = V::max_std(mr, V::mul(V::abs(V::sub(va, vb)), vs));
    mn = V::max_std(mn, V::mul(V::max_std(V::abs(va), V::abs(vb)), vs));
  }
  double r = V::reduce_max(mr);
  double m = V::reduce_max(mn);
  for (; i < n; ++i) {
    r = std::max(r, std::abs(a[i] - b[i]) * scale[i]);
    m = std::max(m, std::max(std::abs(a[i]), std::abs(b[i])) * scale[i]);
  }
  *res = r;
  *norm = m;
}

template <class V>
void inf_norm_scaled_residual3_t(const double* a, const double* b, const double* c,
                                 const double* scale, double post, std::size_t n, double* res,
                                 double* norm) {
  const typename V::vec vpost = V::broadcast(post);
  typename V::vec mr = V::zero();
  typename V::vec mn = V::zero();
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    const typename V::vec va = V::load(a + i);
    const typename V::vec vb = V::load(b + i);
    const typename V::vec vc = V::load(c + i);
    const typename V::vec vs = V::load(scale + i);
    const typename V::vec s = V::add(V::add(va, vb), vc);
    mr = V::max_std(mr, V::mul(V::mul(V::abs(s), vs), vpost));
    mn = V::max_std(mn, V::mul(V::max_std(V::max_std(V::abs(va), V::abs(vb)), V::abs(vc)), vs));
  }
  double r = V::reduce_max(mr);
  double m = V::reduce_max(mn);
  for (; i < n; ++i) {
    r = std::max(r, std::abs(a[i] + b[i] + c[i]) * scale[i] * post);
    m = std::max(m,
                 std::max(std::max(std::abs(a[i]), std::abs(b[i])), std::abs(c[i])) * scale[i]);
  }
  *res = r;
  // Same max-then-scale-by-post form as the scalar kernel (bitwise equal to
  // scale-then-max for post > 0: rounding under a positive multiply is
  // monotone).
  *norm = m * post;
}

template <class V>
void axpby_t(double av, const double* x, double bv, double* y, std::size_t n) {
  const typename V::vec va = V::broadcast(av);
  const typename V::vec vb = V::broadcast(bv);
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    V::store(y + i, V::add(V::mul(va, V::load(x + i)), V::mul(vb, V::load(y + i))));
  }
  for (; i < n; ++i) y[i] = av * x[i] + bv * y[i];
}

template <class V>
double axpby_delta_t(double av, const double* src, double bv, double* x, double* delta,
                     std::size_t n) {
  const typename V::vec va = V::broadcast(av);
  const typename V::vec vb = V::broadcast(bv);
  typename V::vec m = V::zero();
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    const typename V::vec old = V::load(x + i);
    const typename V::vec next = V::add(V::mul(va, V::load(src + i)), V::mul(vb, old));
    const typename V::vec d = V::sub(next, old);
    V::store(delta + i, d);
    V::store(x + i, next);
    m = V::max_std(m, V::abs(d));
  }
  double best = V::reduce_max(m);
  for (; i < n; ++i) {
    const double next = av * src[i] + bv * x[i];
    delta[i] = next - x[i];
    x[i] = next;
    best = std::max(best, std::abs(delta[i]));
  }
  return best;
}

template <class V>
void project_box_into_t(const double* x, const double* lo, const double* hi, double* out,
                        std::size_t n) {
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    V::store(out + i, V::min_std(V::max_std(V::load(x + i), V::load(lo + i)), V::load(hi + i)));
  }
  for (; i < n; ++i) out[i] = std::min(std::max(x[i], lo[i]), hi[i]);
}

template <class V>
void admm_z_tilde_t(const double* z, const double* nu, const double* y, const double* rho,
                    double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    const typename V::vec q = V::div(V::sub(V::load(nu + i), V::load(y + i)), V::load(rho + i));
    V::store(out + i, V::add(V::load(z + i), q));
  }
  for (; i < n; ++i) out[i] = z[i] + (nu[i] - y[i]) / rho[i];
}

template <class V>
void admm_z_candidate_cached_t(double alpha, const double* z_tilde, const double* z,
                               const double* y_over_rho, double* out, std::size_t n) {
  const double beta = 1.0 - alpha;
  const typename V::vec va = V::broadcast(alpha);
  const typename V::vec vb = V::broadcast(beta);
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    const typename V::vec t =
        V::add(V::mul(va, V::load(z_tilde + i)), V::mul(vb, V::load(z + i)));
    V::store(out + i, V::add(t, V::load(y_over_rho + i)));
  }
  for (; i < n; ++i) out[i] = alpha * z_tilde[i] + beta * z[i] + y_over_rho[i];
}

template <class V>
void admm_dual_update_t(const double* rho, const double* zc, const double* zn, double* y,
                        std::size_t n) {
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    V::store(y + i, V::mul(V::load(rho + i), V::sub(V::load(zc + i), V::load(zn + i))));
  }
  for (; i < n; ++i) y[i] = rho[i] * (zc[i] - zn[i]);
}

template <class V>
double admm_dual_update_delta_t(const double* rho, const double* zc, const double* zn,
                                double* y, double* delta, std::size_t n) {
  typename V::vec m = V::zero();
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    const typename V::vec next =
        V::mul(V::load(rho + i), V::sub(V::load(zc + i), V::load(zn + i)));
    const typename V::vec d = V::sub(next, V::load(y + i));
    V::store(delta + i, d);
    V::store(y + i, next);
    m = V::max_std(m, V::abs(d));
  }
  double best = V::reduce_max(m);
  for (; i < n; ++i) {
    const double next = rho[i] * (zc[i] - zn[i]);
    delta[i] = next - y[i];
    y[i] = next;
    best = std::max(best, std::abs(delta[i]));
  }
  return best;
}

// SELL SpMV: chunks of kSellChunk rows, entries j-major, zero-value pads
// (sparse_simd.cpp documents why the pads are bitwise no-ops). Gathers x per
// lane; per lane the term sequence and its association acc += v * (alpha * x)
// match the scalar tier's s_sell_multiply_into exactly.
template <class V>
void sell_multiply_into_t(const SellView& m, double alpha, const double* x, double* y) {
  constexpr int kW = static_cast<int>(V::width);
  constexpr int kGroups = kSellChunk / kW;
  static_assert(kGroups * kW == kSellChunk, "chunk must be a multiple of the vector width");
  const typename V::vec valpha = V::broadcast(alpha);
  const std::int32_t full_chunks = m.rows / kSellChunk;
  for (std::int32_t c = 0; c < m.num_chunks; ++c) {
    const std::int64_t base = m.chunk_ptr[c];
    const std::int64_t width = (m.chunk_ptr[c + 1] - base) / kSellChunk;
    typename V::vec acc[kGroups];
    for (int g = 0; g < kGroups; ++g) acc[g] = V::zero();
    for (std::int64_t j = 0; j < width; ++j) {
      const std::int64_t e = base + j * kSellChunk;
      for (int g = 0; g < kGroups; ++g) {
        const typename V::vec xc = V::mul(valpha, V::gather(x, m.col_idx + e + g * kW));
        acc[g] = V::add(acc[g], V::mul(V::load(m.values + e + g * kW), xc));
      }
    }
    const std::int32_t r0 = c * kSellChunk;
    if (c < full_chunks) {
      for (int g = 0; g < kGroups; ++g) V::store(y + r0 + g * kW, acc[g]);
    } else {
      double tmp[kSellChunk];
      for (int g = 0; g < kGroups; ++g) V::store(tmp + g * kW, acc[g]);
      const std::int32_t live = m.rows - r0;
      for (std::int32_t l = 0; l < live; ++l) y[r0 + l] = tmp[l];
    }
  }
}

// -log(u) / rate lane by lane: the scalar tier's fdlibm sequence
// (simd_kernels_scalar.cpp documents it) with the integer reduction done on
// the lanes' bit patterns. Element-wise, so out may alias u.
template <class V>
void neg_log_div_t(const double* u, double rate, double* out, std::size_t n) {
  using namespace logc;
  using vec = typename V::vec;
  const vec mantissa_mask = V::from_bits(kMantissaMask);
  const vec exponent_mask = V::from_bits(kExponentMask);
  const vec implicit_bit = V::from_bits(kImplicitBit);
  const vec sqrt2_carry = V::from_bits(kSqrt2Carry);
  const vec one_bits = V::from_bits(kOneBits);
  const vec magic_bits = V::from_bits(kMagicBits);
  const vec magic_bias = V::broadcast(kMagicBias);
  const vec one = V::broadcast(1.0);
  const vec two = V::broadcast(2.0);
  const vec half = V::broadcast(0.5);
  const vec vrate = V::broadcast(rate);
  const bool unit_rate = rate == 1.0;  // x / 1.0 == x exactly: skip the divide
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    const vec bits = V::load(u + i);
    const vec mantissa = V::bit_and(bits, mantissa_mask);
    const vec halved = V::bit_and(V::int_add(mantissa, sqrt2_carry), implicit_bit);
    const vec x = V::bit_or(mantissa, V::bit_xor(halved, one_bits));
    const vec k_field = V::bit_or(
        V::template shift_right<52>(V::int_add(V::bit_and(bits, exponent_mask), halved)),
        magic_bits);
    const vec k = V::sub(k_field, magic_bias);
    const vec f = V::sub(x, one);
    const vec s = V::div(f, V::add(two, f));
    const vec z = V::mul(s, s);
    const vec w = V::mul(z, z);
    const vec t1 = V::mul(
        w, V::add(V::broadcast(kLg2),
                  V::mul(w, V::add(V::broadcast(kLg4), V::mul(w, V::broadcast(kLg6))))));
    const vec t2 = V::mul(
        z, V::add(V::broadcast(kLg1),
                  V::mul(w, V::add(V::broadcast(kLg3),
                                   V::mul(w, V::add(V::broadcast(kLg5),
                                                    V::mul(w, V::broadcast(kLg7))))))));
    const vec r = V::add(t2, t1);
    const vec hfsq = V::mul(V::mul(half, f), f);
    const vec inner = V::add(V::mul(s, V::add(hfsq, r)), V::mul(k, V::broadcast(kLn2Lo)));
    const vec neg_log =
        V::sub(V::sub(V::sub(hfsq, inner), f), V::mul(k, V::broadcast(kLn2Hi)));
    V::store(out + i, unit_rate ? neg_log : V::div(neg_log, vrate));
  }
  if (i < n) scalar_table().neg_log_div(u + i, rate, out + i, n - i);
}

template <class V>
KernelTable make_table() {
  KernelTable t;
  t.norm_inf = &norm_inf_t<V>;
  t.inf_norm_scaled_residual = &inf_norm_scaled_residual_t<V>;
  t.inf_norm_scaled_residual3 = &inf_norm_scaled_residual3_t<V>;
  t.axpby = &axpby_t<V>;
  t.axpby_delta = &axpby_delta_t<V>;
  t.project_box_into = &project_box_into_t<V>;
  t.admm_z_tilde = &admm_z_tilde_t<V>;
  t.admm_z_candidate_cached = &admm_z_candidate_cached_t<V>;
  t.admm_dual_update = &admm_dual_update_t<V>;
  t.admm_dual_update_delta = &admm_dual_update_delta_t<V>;
  t.sell_multiply_into = &sell_multiply_into_t<V>;
  t.neg_log_div = &neg_log_div_t<V>;
  return t;
}

}  // namespace gp::linalg::simd
