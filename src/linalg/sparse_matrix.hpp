// Compressed-sparse-column (CSC) matrix.
//
// This is the workhorse representation for the QP constraint matrices and
// the quasi-definite KKT systems factored by SparseLdlt. Construction is via
// triplets (duplicates are summed, as in every mainstream sparse toolkit).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/dense_matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace gp::linalg {

/// One (row, col, value) coordinate entry.
struct Triplet {
  std::int32_t row = 0;
  std::int32_t col = 0;
  double value = 0.0;
};

/// Immutable-shape CSC sparse matrix. Row indices within each column are
/// strictly increasing; duplicate triplets are summed at construction.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds from triplets. Indices must lie inside [0, rows) x [0, cols).
  static SparseMatrix from_triplets(std::int32_t rows, std::int32_t cols,
                                    std::span<const Triplet> triplets);

  /// Brace-list convenience overload.
  static SparseMatrix from_triplets(std::int32_t rows, std::int32_t cols,
                                    std::initializer_list<Triplet> triplets) {
    return from_triplets(rows, cols,
                         std::span<const Triplet>(triplets.begin(), triplets.size()));
  }

  /// Adopts CSC arrays as they are (col_ptr of size cols+1 starting at 0,
  /// rows strictly increasing within each column; checked). For builders
  /// that produce sorted columns directly and so need no triplet sort.
  static SparseMatrix from_csc(std::int32_t rows, std::int32_t cols,
                               std::vector<std::int32_t> col_ptr,
                               std::vector<std::int32_t> row_idx, std::vector<double> values);

  /// n x n identity scaled by `value`.
  static SparseMatrix identity(std::int32_t n, double value = 1.0);

  /// Diagonal matrix from a vector.
  static SparseMatrix diagonal(std::span<const double> diag);

  std::int32_t rows() const { return rows_; }
  std::int32_t cols() const { return cols_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(values_.size()); }

  std::span<const std::int32_t> col_ptr() const { return col_ptr_; }
  std::span<const std::int32_t> row_idx() const { return row_idx_; }
  std::span<const double> values() const { return values_; }
  std::span<double> mutable_values() { return values_; }

  /// y = A x.
  Vector multiply(std::span<const double> x) const;

  /// y = A^T x.
  Vector multiply_transposed(std::span<const double> x) const;

  /// y += alpha * A x.
  void multiply_accumulate(double alpha, std::span<const double> x, std::span<double> y) const;

  /// y += alpha * A^T x.
  void multiply_transposed_accumulate(double alpha, std::span<const double> x,
                                      std::span<double> y) const;

  SparseMatrix transposed() const;

  /// General sparse product this * other.
  SparseMatrix multiply(const SparseMatrix& other) const;

  /// Upper triangle (including diagonal) of a square matrix.
  SparseMatrix upper_triangle() const;

  /// Entry lookup (binary search within the column); 0 when absent.
  double coefficient(std::int32_t row, std::int32_t col) const;

  /// Dense conversion for tests / debugging.
  DenseMatrix to_dense() const;

  /// Scales row i by row_scale[i] and column j by col_scale[j] in place.
  void scale_rows_cols(std::span<const double> row_scale, std::span<const double> col_scale);

  /// Max |a_ij| per column; columns with no entries report 0.
  Vector column_inf_norms() const;

  /// Max |a_ij| per row; rows with no entries report 0.
  Vector row_inf_norms() const;

 private:
  std::int32_t rows_ = 0;
  std::int32_t cols_ = 0;
  std::vector<std::int32_t> col_ptr_;  // size cols+1
  std::vector<std::int32_t> row_idx_;  // size nnz, ascending within a column
  std::vector<double> values_;         // size nnz
};

}  // namespace gp::linalg
