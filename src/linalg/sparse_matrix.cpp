#include "linalg/sparse_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "linalg/dense_matrix.hpp"

namespace gp::linalg {

SparseMatrix SparseMatrix::from_triplets(std::int32_t rows, std::int32_t cols,
                                         std::span<const Triplet> triplets) {
  require(rows >= 0 && cols >= 0, "from_triplets: negative dimension");
  SparseMatrix a;
  a.rows_ = rows;
  a.cols_ = cols;
  a.col_ptr_.assign(static_cast<std::size_t>(cols) + 1, 0);

  std::vector<Triplet> sorted(triplets.begin(), triplets.end());
  for (const auto& t : sorted) {
    require(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols,
            "from_triplets: index out of range");
  }
  std::sort(sorted.begin(), sorted.end(), [](const Triplet& x, const Triplet& y) {
    return x.col != y.col ? x.col < y.col : x.row < y.row;
  });

  a.row_idx_.reserve(sorted.size());
  a.values_.reserve(sorted.size());
  std::int32_t last_col = -1;
  std::int32_t last_row = -1;
  for (const auto& t : sorted) {
    if (t.col == last_col && t.row == last_row) {
      a.values_.back() += t.value;  // sum duplicates
      continue;
    }
    a.row_idx_.push_back(t.row);
    a.values_.push_back(t.value);
    a.col_ptr_[static_cast<std::size_t>(t.col) + 1] =
        static_cast<std::int32_t>(a.row_idx_.size());
    last_col = t.col;
    last_row = t.row;
  }
  // Fill column pointers for empty columns (carry forward).
  for (std::size_t c = 1; c <= static_cast<std::size_t>(cols); ++c) {
    a.col_ptr_[c] = std::max(a.col_ptr_[c], a.col_ptr_[c - 1]);
  }
  return a;
}

SparseMatrix SparseMatrix::from_csc(std::int32_t rows, std::int32_t cols,
                                    std::vector<std::int32_t> col_ptr,
                                    std::vector<std::int32_t> row_idx,
                                    std::vector<double> values) {
  require(rows >= 0 && cols >= 0, "from_csc: negative dimension");
  require(col_ptr.size() == static_cast<std::size_t>(cols) + 1 && col_ptr.front() == 0 &&
              static_cast<std::size_t>(col_ptr.back()) == row_idx.size() &&
              row_idx.size() == values.size(),
          "from_csc: array sizes disagree");
  for (std::int32_t c = 0; c < cols; ++c) {
    const std::int32_t begin = col_ptr[static_cast<std::size_t>(c)];
    const std::int32_t end = col_ptr[static_cast<std::size_t>(c) + 1];
    require(begin <= end, "from_csc: column pointers must be non-decreasing");
    for (std::int32_t p = begin; p < end; ++p) {
      const std::int32_t r = row_idx[static_cast<std::size_t>(p)];
      require(r >= 0 && r < rows && (p == begin || row_idx[static_cast<std::size_t>(p) - 1] < r),
              "from_csc: rows must be in range and strictly increasing per column");
    }
  }
  SparseMatrix a;
  a.rows_ = rows;
  a.cols_ = cols;
  a.col_ptr_ = std::move(col_ptr);
  a.row_idx_ = std::move(row_idx);
  a.values_ = std::move(values);
  return a;
}

SparseMatrix SparseMatrix::identity(std::int32_t n, double value) {
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) triplets.push_back({i, i, value});
  return from_triplets(n, n, triplets);
}

SparseMatrix SparseMatrix::diagonal(std::span<const double> diag) {
  std::vector<Triplet> triplets;
  triplets.reserve(diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) {
    triplets.push_back({static_cast<std::int32_t>(i), static_cast<std::int32_t>(i), diag[i]});
  }
  const auto n = static_cast<std::int32_t>(diag.size());
  return from_triplets(n, n, triplets);
}

Vector SparseMatrix::multiply(std::span<const double> x) const {
  Vector y(static_cast<std::size_t>(rows_), 0.0);
  multiply_accumulate(1.0, x, y);
  return y;
}

Vector SparseMatrix::multiply_transposed(std::span<const double> x) const {
  Vector y(static_cast<std::size_t>(cols_), 0.0);
  multiply_transposed_accumulate(1.0, x, y);
  return y;
}

void SparseMatrix::multiply_accumulate(double alpha, std::span<const double> x,
                                       std::span<double> y) const {
  require(x.size() == static_cast<std::size_t>(cols_), "multiply: x size mismatch");
  require(y.size() == static_cast<std::size_t>(rows_), "multiply: y size mismatch");
  for (std::int32_t c = 0; c < cols_; ++c) {
    const double xc = alpha * x[static_cast<std::size_t>(c)];
    if (xc == 0.0) continue;
    for (std::int32_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
      y[static_cast<std::size_t>(row_idx_[p])] += values_[p] * xc;
    }
  }
}

void SparseMatrix::multiply_transposed_accumulate(double alpha, std::span<const double> x,
                                                  std::span<double> y) const {
  require(x.size() == static_cast<std::size_t>(rows_), "multiply_transposed: x size mismatch");
  require(y.size() == static_cast<std::size_t>(cols_), "multiply_transposed: y size mismatch");
  // Per-term accumulation (acc += v * (alpha * x_r), rows ascending): the
  // association SellMirror's A^T orientation uses too, so the two agree
  // bitwise (sparse_simd.hpp). Terms with alpha * x_r == 0.0 are skipped:
  // dual vectors are zero on every inactive row.
  for (std::int32_t c = 0; c < cols_; ++c) {
    double acc = y[static_cast<std::size_t>(c)];
    for (std::int32_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
      const double xr = alpha * x[static_cast<std::size_t>(row_idx_[p])];
      if (xr == 0.0) continue;
      acc += values_[p] * xr;
    }
    y[static_cast<std::size_t>(c)] = acc;
  }
}

SparseMatrix SparseMatrix::transposed() const {
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.col_ptr_.assign(static_cast<std::size_t>(rows_) + 1, 0);
  t.row_idx_.resize(values_.size());
  t.values_.resize(values_.size());
  // Count entries per row of this = per column of t.
  for (std::int32_t idx : row_idx_) ++t.col_ptr_[static_cast<std::size_t>(idx) + 1];
  for (std::size_t c = 1; c <= static_cast<std::size_t>(rows_); ++c) {
    t.col_ptr_[c] += t.col_ptr_[c - 1];
  }
  std::vector<std::int32_t> next(t.col_ptr_.begin(), t.col_ptr_.end() - 1);
  for (std::int32_t c = 0; c < cols_; ++c) {
    for (std::int32_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
      const std::int32_t dst = next[static_cast<std::size_t>(row_idx_[p])]++;
      t.row_idx_[dst] = c;
      t.values_[dst] = values_[p];
    }
  }
  return t;
}

SparseMatrix SparseMatrix::multiply(const SparseMatrix& other) const {
  require(cols_ == other.rows_, "multiply: inner dimension mismatch");
  std::vector<Triplet> triplets;
  Vector accum(static_cast<std::size_t>(rows_), 0.0);
  std::vector<std::int32_t> touched;
  for (std::int32_t c = 0; c < other.cols_; ++c) {
    touched.clear();
    for (std::int32_t p = other.col_ptr_[c]; p < other.col_ptr_[c + 1]; ++p) {
      const std::int32_t k = other.row_idx_[p];
      const double bkc = other.values_[p];
      for (std::int32_t q = col_ptr_[k]; q < col_ptr_[k + 1]; ++q) {
        const auto r = static_cast<std::size_t>(row_idx_[q]);
        if (accum[r] == 0.0) touched.push_back(row_idx_[q]);
        accum[r] += values_[q] * bkc;
      }
    }
    for (std::int32_t r : touched) {
      triplets.push_back({r, c, accum[static_cast<std::size_t>(r)]});
      accum[static_cast<std::size_t>(r)] = 0.0;
    }
  }
  return from_triplets(rows_, other.cols_, triplets);
}

SparseMatrix SparseMatrix::upper_triangle() const {
  require(rows_ == cols_, "upper_triangle: matrix must be square");
  std::vector<Triplet> triplets;
  for (std::int32_t c = 0; c < cols_; ++c) {
    for (std::int32_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
      if (row_idx_[p] <= c) triplets.push_back({row_idx_[p], c, values_[p]});
    }
  }
  return from_triplets(rows_, cols_, triplets);
}

double SparseMatrix::coefficient(std::int32_t row, std::int32_t col) const {
  require(row >= 0 && row < rows_ && col >= 0 && col < cols_, "coefficient: out of range");
  const auto begin = row_idx_.begin() + col_ptr_[col];
  const auto end = row_idx_.begin() + col_ptr_[col + 1];
  const auto it = std::lower_bound(begin, end, row);
  if (it == end || *it != row) return 0.0;
  return values_[static_cast<std::size_t>(it - row_idx_.begin())];
}

DenseMatrix SparseMatrix::to_dense() const {
  DenseMatrix d(static_cast<std::size_t>(rows_), static_cast<std::size_t>(cols_));
  for (std::int32_t c = 0; c < cols_; ++c) {
    for (std::int32_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
      d(static_cast<std::size_t>(row_idx_[p]), static_cast<std::size_t>(c)) = values_[p];
    }
  }
  return d;
}

void SparseMatrix::scale_rows_cols(std::span<const double> row_scale,
                                   std::span<const double> col_scale) {
  require(row_scale.size() == static_cast<std::size_t>(rows_), "scale: row size mismatch");
  require(col_scale.size() == static_cast<std::size_t>(cols_), "scale: col size mismatch");
  for (std::int32_t c = 0; c < cols_; ++c) {
    for (std::int32_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
      values_[p] *= row_scale[static_cast<std::size_t>(row_idx_[p])] *
                    col_scale[static_cast<std::size_t>(c)];
    }
  }
}

Vector SparseMatrix::column_inf_norms() const {
  Vector norms(static_cast<std::size_t>(cols_), 0.0);
  for (std::int32_t c = 0; c < cols_; ++c) {
    for (std::int32_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
      norms[static_cast<std::size_t>(c)] =
          std::max(norms[static_cast<std::size_t>(c)], std::abs(values_[p]));
    }
  }
  return norms;
}

Vector SparseMatrix::row_inf_norms() const {
  Vector norms(static_cast<std::size_t>(rows_), 0.0);
  for (std::int32_t c = 0; c < cols_; ++c) {
    for (std::int32_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
      auto& entry = norms[static_cast<std::size_t>(row_idx_[p])];
      entry = std::max(entry, std::abs(values_[p]));
    }
  }
  return norms;
}

}  // namespace gp::linalg
