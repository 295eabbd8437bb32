// AVX-512 kernel tier. Compiled with -mavx512f -mavx512dq -ffp-contract=off
// (DQ supplies the 512-bit VANDPD used for |x|; contraction to FMA would
// break the cross-tier bit-identity contract). Degrades to a null table when
// the build lacks the ISA, and dispatch clamps to the next tier down.
#include "linalg/simd_kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include "linalg/simd_kernels_vec_body.hpp"

namespace gp::linalg::simd {
namespace {

struct V8 {
  using vec = __m512d;
  static constexpr std::size_t width = 8;
  static vec load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, vec v) { _mm512_storeu_pd(p, v); }
  static vec broadcast(double x) { return _mm512_set1_pd(x); }
  static vec zero() { return _mm512_setzero_pd(); }
  static vec add(vec a, vec b) { return _mm512_add_pd(a, b); }
  static vec sub(vec a, vec b) { return _mm512_sub_pd(a, b); }
  static vec mul(vec a, vec b) { return _mm512_mul_pd(a, b); }
  static vec div(vec a, vec b) { return _mm512_div_pd(a, b); }
  static vec abs(vec a) { return _mm512_andnot_pd(_mm512_set1_pd(-0.0), a); }
  // Argument swap reproduces std::max/std::min lane-wise (see the AVX2 TU).
  static vec max_std(vec a, vec b) { return _mm512_max_pd(b, a); }
  static vec min_std(vec a, vec b) { return _mm512_min_pd(b, a); }
  static vec gather(const double* base, const std::int32_t* idx) {
    return _mm512_i32gather_pd(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)),
                               base, 8);
  }
  // Exact for the reduction lanes (never -0, never NaN — see the body
  // header); the 8-lane candidate set equals the scalar code's 4-lane one,
  // so the combined maximum is bit-identical.
  static double reduce_max(vec v) {
    alignas(64) double lane[8];
    _mm512_store_pd(lane, v);
    const double lo = std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
    const double hi = std::max(std::max(lane[4], lane[5]), std::max(lane[6], lane[7]));
    return std::max(lo, hi);
  }
  static vec from_bits(std::uint64_t b) {
    return _mm512_castsi512_pd(_mm512_set1_epi64(static_cast<long long>(b)));
  }
  static vec bit_and(vec a, vec b) { return _mm512_and_pd(a, b); }
  static vec bit_or(vec a, vec b) { return _mm512_or_pd(a, b); }
  static vec bit_xor(vec a, vec b) { return _mm512_xor_pd(a, b); }
  static vec int_add(vec a, vec b) {
    return _mm512_castsi512_pd(
        _mm512_add_epi64(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  template <int kShift>
  static vec shift_right(vec a) {
    return _mm512_castsi512_pd(_mm512_srli_epi64(_mm512_castpd_si512(a), kShift));
  }
};

}  // namespace

const KernelTable* avx512_table() {
  static const KernelTable table = make_table<V8>();
  return &table;
}

}  // namespace gp::linalg::simd

#else  // !AVX-512

namespace gp::linalg::simd {
const KernelTable* avx512_table() { return nullptr; }
}  // namespace gp::linalg::simd

#endif
