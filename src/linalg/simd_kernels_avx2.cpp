// AVX2 kernel tier. Compiled with -mavx2 -ffp-contract=off (contraction to
// FMA would change rounding and break the cross-tier bit-identity contract).
// When the build lacks AVX2 (non-x86 target, or a compiler without the flag)
// the TU degrades to a null table and dispatch clamps to scalar.
#include "linalg/simd_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "linalg/simd_kernels_vec_body.hpp"

namespace gp::linalg::simd {
namespace {

struct V4 {
  using vec = __m256d;
  static constexpr std::size_t width = 4;
  static vec load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, vec v) { _mm256_storeu_pd(p, v); }
  static vec broadcast(double x) { return _mm256_set1_pd(x); }
  static vec zero() { return _mm256_setzero_pd(); }
  static vec add(vec a, vec b) { return _mm256_add_pd(a, b); }
  static vec sub(vec a, vec b) { return _mm256_sub_pd(a, b); }
  static vec mul(vec a, vec b) { return _mm256_mul_pd(a, b); }
  static vec div(vec a, vec b) { return _mm256_div_pd(a, b); }
  static vec abs(vec a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }
  // std::max(a, b) returns a unless b > a (NaN b and -0-vs-+0 ties keep a).
  // VMAXPD(src1, src2) returns src2 unless src1 > src2 — so swapping the
  // arguments reproduces std::max lane-wise, bit for bit. Same for min.
  static vec max_std(vec a, vec b) { return _mm256_max_pd(b, a); }
  static vec min_std(vec a, vec b) { return _mm256_min_pd(b, a); }
  static vec gather(const double* base, const std::int32_t* idx) {
    return _mm256_i32gather_pd(base,
                               _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx)), 8);
  }
  // Exact: reduction lanes start at +0 and only non-negative candidates
  // replace them, so max over lanes is order-independent.
  static double reduce_max(vec v) {
    alignas(32) double lane[4];
    _mm256_store_pd(lane, v);
    return std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
  }
  static vec from_bits(std::uint64_t b) {
    return _mm256_castsi256_pd(_mm256_set1_epi64x(static_cast<long long>(b)));
  }
  static vec bit_and(vec a, vec b) { return _mm256_and_pd(a, b); }
  static vec bit_or(vec a, vec b) { return _mm256_or_pd(a, b); }
  static vec bit_xor(vec a, vec b) { return _mm256_xor_pd(a, b); }
  static vec int_add(vec a, vec b) {
    return _mm256_castsi256_pd(
        _mm256_add_epi64(_mm256_castpd_si256(a), _mm256_castpd_si256(b)));
  }
  template <int kShift>
  static vec shift_right(vec a) {
    return _mm256_castsi256_pd(_mm256_srli_epi64(_mm256_castpd_si256(a), kShift));
  }
};

}  // namespace

const KernelTable* avx2_table() {
  static const KernelTable table = make_table<V4>();
  return &table;
}

}  // namespace gp::linalg::simd

#else  // !__AVX2__

namespace gp::linalg::simd {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace gp::linalg::simd

#endif
