// SELL-C row-tiled mirror of a CSC SparseMatrix for vectorized SpMV.
//
// Rows are grouped into chunks of kSellChunk (= 8); within a chunk, entries
// are stored j-major (entry j of every row, then entry j+1, ...), so one
// vector load picks up entry j of W adjacent rows and one gather fetches
// their x operands. Rows shorter than their chunk's widest row are padded
// with value 0.0 and an in-range column index.
//
// Bit-identity with the CSC products (SparseMatrix::multiply_accumulate
// and multiply_transposed_accumulate into a zeroed output): per output
// element, terms are consumed in the same ascending order with the same
// acc += v * (alpha * x) association, and the two paths differ only in terms
// that are exactly ±0 — the pads (v = 0.0) here, and the skipped
// alpha * x == 0.0 terms there. Adding ±0 never changes an accumulator that
// starts at +0 (it can never become -0: a sum rounds to -0 only when both
// operands are -0), so for finite inputs the stored bits are identical.
//
// The multiply kernels dispatch on the active SIMD tier (simd_dispatch.hpp)
// and are bit-identical across tiers: each lane runs the same IEEE sequence,
// and the per-ISA TUs compile with -ffp-contract=off.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/simd_kernels.hpp"
#include "linalg/sparse_matrix.hpp"

namespace gp::linalg {

class SellMirror {
 public:
  SellMirror() = default;

  /// Builds the SELL layout of `a` (y = alpha * A x products). Allocates;
  /// once per structure.
  void build(const SparseMatrix& a);

  /// Builds the SELL layout of A^T from `a` without materializing the
  /// transpose (y = alpha * A^T x products). The CSC columns of A are the
  /// rows of A^T, already in ascending-column order.
  void build_transposed(const SparseMatrix& a);

  /// True when `a` has exactly the pattern this mirror was built from (same
  /// source-matrix pattern; orientation is fixed by which build ran).
  bool pattern_matches(const SparseMatrix& a) const;

  /// Refreshes values from `a`, which must satisfy pattern_matches(a).
  /// Allocation-free; pad slots stay 0.0.
  void update_values(const SparseMatrix& a);

  bool built() const { return rows_ >= 0; }
  /// Output dimension (rows of A, or cols of A when built transposed).
  std::int32_t rows() const { return rows_; }
  /// Input dimension.
  std::int32_t cols() const { return cols_; }
  /// Stored entries INCLUDING padding (the bytes SpMV actually streams).
  std::int64_t stored_entries() const { return static_cast<std::int64_t>(values_.size()); }

  /// y = alpha * M x on the active SIMD tier (M = A or A^T per the build).
  /// Inputs must be finite: pads multiply 0.0 by a gathered x element, and
  /// 0 * inf / 0 * NaN would poison the row. Allocation-free.
  void multiply_into(double alpha, std::span<const double> x, std::span<double> y) const;

  /// Borrowed layout view for the dispatch kernels and the tests.
  simd::SellView view() const;

 private:
  void build_from_rows(std::int32_t rows, std::int32_t cols,
                       std::span<const std::int32_t> row_start,
                       std::span<const std::int32_t> entry_col,
                       std::span<const std::int32_t> entry_pos);

  std::int32_t rows_ = -1;  // -1 until build(); distinguishes a 0 x 0 build
  bool transposed_ = false;
  std::int32_t cols_ = 0;
  std::int32_t num_chunks_ = 0;
  std::vector<std::int64_t> chunk_ptr_;  // size num_chunks+1, entry offsets
  std::vector<std::int32_t> col_idx_;    // per entry; pads point in range
  std::vector<double> values_;           // per entry; pads are 0.0
  std::vector<std::int32_t> csc_pos_;    // entry -> index into a.values(); -1 = pad
  // Source CSC pattern for pattern_matches().
  std::vector<std::int32_t> src_col_ptr_;
  std::vector<std::int32_t> src_row_idx_;
};

}  // namespace gp::linalg
