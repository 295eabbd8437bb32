#include "linalg/sparse_simd.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "linalg/simd_dispatch.hpp"

namespace gp::linalg {

namespace {
constexpr int kChunk = simd::kSellChunk;
}

void SellMirror::build(const SparseMatrix& a) {
  // CSC -> CSR transposition (count, prefix-sum, place); the CSR arrays are
  // scratch here — build_from_rows repacks them into the SELL layout.
  const auto col_ptr = a.col_ptr();
  const auto row_idx = a.row_idx();
  const auto nnz = static_cast<std::size_t>(a.nnz());

  std::vector<std::int32_t> row_start(static_cast<std::size_t>(a.rows()) + 1, 0);
  for (std::size_t p = 0; p < nnz; ++p) {
    ++row_start[static_cast<std::size_t>(row_idx[p]) + 1];
  }
  for (std::size_t r = 1; r < row_start.size(); ++r) row_start[r] += row_start[r - 1];
  std::vector<std::int32_t> entry_col(nnz);
  std::vector<std::int32_t> entry_pos(nnz);
  std::vector<std::int32_t> next(row_start.begin(), row_start.end() - 1);
  for (std::int32_t c = 0; c < a.cols(); ++c) {
    for (std::int32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      const auto dst = static_cast<std::size_t>(next[static_cast<std::size_t>(row_idx[p])]++);
      entry_col[dst] = c;  // ascending within a row: columns visited in order
      entry_pos[dst] = p;
    }
  }

  transposed_ = false;
  src_col_ptr_.assign(col_ptr.begin(), col_ptr.end());
  src_row_idx_.assign(row_idx.begin(), row_idx.end());
  build_from_rows(a.rows(), a.cols(), row_start, entry_col, entry_pos);
  update_values(a);
}

void SellMirror::build_transposed(const SparseMatrix& a) {
  // Row r of A^T is CSC column r of A, entries already in ascending-column
  // (of A^T) order because row indices ascend within a CSC column.
  const auto col_ptr = a.col_ptr();
  const auto row_idx = a.row_idx();
  const auto nnz = static_cast<std::size_t>(a.nnz());

  std::vector<std::int32_t> row_start(col_ptr.begin(), col_ptr.end());
  std::vector<std::int32_t> entry_pos(nnz);
  for (std::size_t p = 0; p < nnz; ++p) entry_pos[p] = static_cast<std::int32_t>(p);

  transposed_ = true;
  src_col_ptr_.assign(col_ptr.begin(), col_ptr.end());
  src_row_idx_.assign(row_idx.begin(), row_idx.end());
  build_from_rows(a.cols(), a.rows(), row_start, row_idx, entry_pos);
  update_values(a);
}

void SellMirror::build_from_rows(std::int32_t rows, std::int32_t cols,
                                 std::span<const std::int32_t> row_start,
                                 std::span<const std::int32_t> entry_col,
                                 std::span<const std::int32_t> entry_pos) {
  rows_ = rows;
  cols_ = cols;
  num_chunks_ = (rows + kChunk - 1) / kChunk;
  chunk_ptr_.assign(static_cast<std::size_t>(num_chunks_) + 1, 0);

  for (std::int32_t c = 0; c < num_chunks_; ++c) {
    std::int32_t width = 0;
    const std::int32_t live = std::min<std::int32_t>(kChunk, rows - c * kChunk);
    for (std::int32_t l = 0; l < live; ++l) {
      const auto r = static_cast<std::size_t>(c * kChunk + l);
      width = std::max(width, row_start[r + 1] - row_start[r]);
    }
    chunk_ptr_[static_cast<std::size_t>(c) + 1] =
        chunk_ptr_[static_cast<std::size_t>(c)] +
        static_cast<std::int64_t>(width) * kChunk;
  }

  const auto total = static_cast<std::size_t>(chunk_ptr_[static_cast<std::size_t>(num_chunks_)]);
  col_idx_.assign(total, 0);
  values_.assign(total, 0.0);
  csc_pos_.assign(total, -1);

  for (std::int32_t c = 0; c < num_chunks_; ++c) {
    const std::int64_t base = chunk_ptr_[static_cast<std::size_t>(c)];
    const auto width = static_cast<std::int32_t>(
        (chunk_ptr_[static_cast<std::size_t>(c) + 1] - base) / kChunk);
    const std::int32_t live = std::min<std::int32_t>(kChunk, rows - c * kChunk);
    for (std::int32_t l = 0; l < kChunk; ++l) {
      const std::int32_t r = c * kChunk + l;
      const std::int32_t len =
          l < live ? row_start[static_cast<std::size_t>(r) + 1] -
                         row_start[static_cast<std::size_t>(r)]
                   : 0;
      // Pads repeat the row's last column (or column 0) so the gather stays
      // in range; their 0.0 value makes them arithmetic no-ops.
      std::int32_t pad_col = 0;
      for (std::int32_t j = 0; j < width; ++j) {
        const auto e = static_cast<std::size_t>(base + std::int64_t{j} * kChunk + l);
        if (j < len) {
          const auto src = static_cast<std::size_t>(
              row_start[static_cast<std::size_t>(r)] + j);
          col_idx_[e] = entry_col[src];
          csc_pos_[e] = entry_pos[src];
          pad_col = entry_col[src];
        } else {
          col_idx_[e] = pad_col;
        }
      }
    }
  }
  // Real values land via update_values() (shared with the refresh path);
  // pad slots keep the 0.0 from the assign above.
}

bool SellMirror::pattern_matches(const SparseMatrix& a) const {
  if (!built()) return false;
  const std::int32_t out_dim = transposed_ ? a.cols() : a.rows();
  const std::int32_t in_dim = transposed_ ? a.rows() : a.cols();
  if (out_dim != rows_ || in_dim != cols_) return false;
  const auto col_ptr = a.col_ptr();
  const auto row_idx = a.row_idx();
  return std::equal(col_ptr.begin(), col_ptr.end(), src_col_ptr_.begin(),
                    src_col_ptr_.end()) &&
         std::equal(row_idx.begin(), row_idx.end(), src_row_idx_.begin(), src_row_idx_.end());
}

void SellMirror::update_values(const SparseMatrix& a) {
  require(built() && a.nnz() == static_cast<std::int64_t>(src_row_idx_.size()),
          "SellMirror::update_values: shape mismatch");
  const auto values = a.values();
  for (std::size_t e = 0; e < values_.size(); ++e) {
    const std::int32_t pos = csc_pos_[e];
    if (pos >= 0) values_[e] = values[static_cast<std::size_t>(pos)];
  }
}

void SellMirror::multiply_into(double alpha, std::span<const double> x,
                               std::span<double> y) const {
  require(built(), "SellMirror::multiply_into: not built");
  require(x.size() == static_cast<std::size_t>(cols_), "sell multiply: x size mismatch");
  require(y.size() == static_cast<std::size_t>(rows_), "sell multiply: y size mismatch");
  simd::kernels().sell_multiply_into(view(), alpha, x.data(), y.data());
}

simd::SellView SellMirror::view() const {
  simd::SellView v;
  v.chunk_ptr = chunk_ptr_.data();
  v.col_idx = col_idx_.data();
  v.values = values_.data();
  v.rows = rows_ < 0 ? 0 : rows_;
  v.num_chunks = num_chunks_;
  return v;
}

}  // namespace gp::linalg
