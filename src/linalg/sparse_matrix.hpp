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

/// Row-major (CSR) mirror of a CSC SparseMatrix, for the memory-access
/// patterns CSC serves badly: A x as a per-row gather (unit-stride writes,
/// no scatter) and A^T x as a stream over the rows of A (one sequential
/// read of x, accumulation into the small column-indexed output).
///
/// The pattern is built once per structure (build()); when only the values
/// change — the ADMM structure-cache case — update_values() refreshes the
/// mirror in place with no allocation. Products are BIT-identical to the
/// CSC SparseMatrix::multiply{,_transposed}_accumulate paths: per output
/// element, terms are consumed in the same order with the same per-term
/// operations (verified to 0 ULP by tests/test_perf_kernels).
class RowMajorMirror {
 public:
  RowMajorMirror() = default;
  explicit RowMajorMirror(const SparseMatrix& a) { build(a); }

  /// Rebuilds pattern + values from `a` (allocates; once per structure).
  void build(const SparseMatrix& a);

  /// True when `a` has exactly the pattern this mirror was built from.
  bool pattern_matches(const SparseMatrix& a) const;

  /// Refreshes values from `a`, which must satisfy pattern_matches(a).
  /// Allocation-free.
  void update_values(const SparseMatrix& a);

  bool built() const { return rows_ >= 0; }
  std::int32_t rows() const { return rows_; }
  std::int32_t cols() const { return cols_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(values_.size()); }

  std::span<const std::int32_t> row_ptr() const { return row_ptr_; }
  std::span<const std::int32_t> col_idx() const { return col_idx_; }
  std::span<const double> values() const { return values_; }

  /// y += alpha * A x, gathering along rows (unit-stride writes to y).
  void multiply_accumulate(double alpha, std::span<const double> x, std::span<double> y) const;

  /// y = alpha * A x, overwriting y. Each row's gather starts from 0.0 —
  /// exactly what zero-fill-then-multiply_accumulate computes, minus the
  /// fill pass over y.
  void multiply_into(double alpha, std::span<const double> x, std::span<double> y) const;

  /// y += alpha * A^T x, streaming the rows of A (unit-stride read of x).
  void multiply_transposed_accumulate(double alpha, std::span<const double> x,
                                      std::span<double> y) const;

 private:
  std::int32_t rows_ = -1;  // -1 until build(); distinguishes a 0 x 0 build
  std::int32_t cols_ = 0;
  std::vector<std::int32_t> row_ptr_;   // size rows+1
  std::vector<std::int32_t> col_idx_;   // size nnz, ascending within a row
  std::vector<double> values_;          // size nnz
  std::vector<std::int32_t> csc_pos_;   // mirror entry -> index into a.values()
  // Source CSC pattern, for pattern_matches() (robust against callers whose
  // own cache state is stale).
  std::vector<std::int32_t> src_col_ptr_;
  std::vector<std::int32_t> src_row_idx_;
};

}  // namespace gp::linalg
