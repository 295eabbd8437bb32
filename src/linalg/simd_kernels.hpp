// Internal kernel table shared between the dispatcher (simd_dispatch.cpp),
// the per-ISA translation units (simd_kernels_{scalar,avx2,avx512}.cpp) and
// the dispatching wrappers (vector_ops.cpp, sparse_simd.cpp). Not part of
// the public linalg surface.
//
// Signatures are raw-pointer + length so the per-ISA TUs stay free of any
// header that might inline code compiled with the wrong ISA flags.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gp::linalg::simd {

/// Borrowed view of a SellMirror's layout (sparse_simd.hpp) for the SpMV
/// kernels. Chunks of kSellChunk rows; entries j-major within a chunk
/// (entry (j, lane) at chunk_ptr[c] + j * kSellChunk + lane), padded with
/// value 0.0 and an in-range column index.
inline constexpr int kSellChunk = 8;

struct SellView {
  const std::int64_t* chunk_ptr = nullptr;  // size num_chunks + 1, entry offsets
  const std::int32_t* col_idx = nullptr;
  const double* values = nullptr;
  std::int32_t rows = 0;
  std::int32_t num_chunks = 0;
};

struct KernelTable {
  double (*norm_inf)(const double* a, std::size_t n);
  void (*inf_norm_scaled_residual)(const double* a, const double* b, const double* scale,
                                   std::size_t n, double* res, double* norm);
  void (*inf_norm_scaled_residual3)(const double* a, const double* b, const double* c,
                                    const double* scale, double post, std::size_t n,
                                    double* res, double* norm);
  void (*axpby)(double av, const double* x, double bv, double* y, std::size_t n);
  double (*axpby_delta)(double av, const double* src, double bv, double* x, double* delta,
                        std::size_t n);
  void (*project_box_into)(const double* x, const double* lo, const double* hi, double* out,
                           std::size_t n);
  void (*admm_z_tilde)(const double* z, const double* nu, const double* y, const double* rho,
                       double* out, std::size_t n);
  void (*admm_z_candidate_cached)(double alpha, const double* z_tilde, const double* z,
                                  const double* y_over_rho, double* out, std::size_t n);
  void (*admm_dual_update)(const double* rho, const double* zc, const double* zn, double* y,
                           std::size_t n);
  double (*admm_dual_update_delta)(const double* rho, const double* zc, const double* zn,
                                   double* y, double* delta, std::size_t n);
  void (*sell_multiply_into)(const SellView& m, double alpha, const double* x, double* y);
  void (*neg_log_div)(const double* u, double rate, double* out, std::size_t n);
};

/// Constants of neg_log_div: fdlibm's e_log argument reduction and
/// Remez polynomial (Sun Microsystems, 1993), shared bit for bit by every
/// tier. An input u = 2^e * m is rewritten as 2^k * (1 + f) with 1 + f in
/// [sqrt(2)/2, sqrt(2)), all in integer arithmetic on the bit pattern:
/// adding kLogSqrt2Carry to the mantissa field carries into the implicit-bit
/// position exactly when m >= sqrt(2), and that carry both halves 1 + f
/// (through the xor with kLogOneBits) and bumps k. k is converted to double
/// exactly through the 2^52 magic-number trick, so no tier needs a 64-bit
/// integer conversion instruction.
namespace logc {
inline constexpr std::uint64_t kMantissaMask = 0x000fffffffffffffULL;
inline constexpr std::uint64_t kExponentMask = 0x7ff0000000000000ULL;
inline constexpr std::uint64_t kImplicitBit = 0x0010000000000000ULL;
// Carries into kImplicitBit once the mantissa field reaches 0x6a09c << 32
// (1 + that fraction is sqrt(2) to 20 bits).
inline constexpr std::uint64_t kSqrt2Carry = 0x00095f6400000000ULL;
inline constexpr std::uint64_t kOneBits = 0x3ff0000000000000ULL;     // 1.0
inline constexpr std::uint64_t kMagicBits = 0x4330000000000000ULL;   // 2^52
inline constexpr double kMagicBias = 0x1p52 + 1023.0;  // 2^52 plus the exponent bias
inline constexpr double kLn2Hi = 0x1.62e42feep-1;      // trailing zeros: k * hi is exact
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kLg1 = 0x1.5555555555593p-1;
inline constexpr double kLg2 = 0x1.999999997fa04p-2;
inline constexpr double kLg3 = 0x1.2492494229359p-2;
inline constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
inline constexpr double kLg5 = 0x1.7466496cb03dep-3;
inline constexpr double kLg6 = 0x1.39a09d078c69fp-3;
inline constexpr double kLg7 = 0x1.2f112df3e5244p-3;
}  // namespace logc

/// Per-tier tables. The scalar table always exists; the vector tables are
/// null when their TU was compiled without the ISA (non-x86 target or a
/// compiler lacking the -m flags).
const KernelTable& scalar_table();
const KernelTable* avx2_table();
const KernelTable* avx512_table();

/// Table for active_tier(); the hot-path entry point for the wrappers.
const KernelTable& kernels();

}  // namespace gp::linalg::simd
