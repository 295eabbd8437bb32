// Sparse LDL^T factorization for symmetric quasi-definite matrices.
//
// Up-looking factorization in the style of Davis' LDL / QDLDL: a symbolic
// pass computes the elimination tree and exact column counts, then the
// numeric pass fills L and the signed diagonal D. Quasi-definite inputs
// (e.g. ADMM KKT matrices [[P + sigma I, A^T], [A, -rho^{-1} I]]) factor
// without pivoting for any symmetric permutation, which is what makes this
// the right kernel for the QP solver.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/ordering.hpp"
#include "linalg/sparse_matrix.hpp"

namespace gp::linalg {

/// Sparse LDL^T with a caller-supplied (or minimum-degree) fill-reducing
/// ordering. The matrix is supplied as the UPPER triangle (diagonal
/// included) of the full symmetric matrix.
class SparseLdlt {
 public:
  enum class Status { kOk, kZeroPivot, kNotFactored, kPatternMismatch };

  /// Chooses a minimum-degree ordering, then factors.
  Status factor(const SparseMatrix& upper);

  /// Factors with an explicit ordering (perm[new] = old).
  Status factor(const SparseMatrix& upper, Permutation perm);

  /// Re-factors a matrix with the SAME sparsity pattern as the previous
  /// successful factor() call, reusing the symbolic analysis (elimination
  /// tree, column counts, ordering). The pattern (col_ptr/row_idx of the
  /// permuted upper triangle) is CHECKED against the one that was factored;
  /// a changed pattern returns kPatternMismatch and leaves the previous
  /// factorization intact — callers must fall back to a fresh factor().
  Status refactor(const SparseMatrix& upper);

  /// Solves A x = b in place; requires a successful factor(). Uses a
  /// persistent permutation scratch buffer, so after the first call at a
  /// given size the solve performs no heap allocation (the ADMM hot loop
  /// calls this once per iteration).
  void solve_in_place(Vector& b) const;

  /// Convenience out-of-place solve.
  Vector solve(std::span<const double> b) const;

  Status status() const { return status_; }

  /// Number of nonzeros in L (excluding the unit diagonal).
  std::int64_t l_nnz() const;

  /// Signed diagonal D (in permuted order); useful for inertia checks.
  std::span<const double> d() const { return d_; }

 private:
  Status numeric_factor(const SparseMatrix& permuted_upper);

  std::int32_t n_ = 0;
  Permutation perm_;
  // Symbolic data.
  std::vector<std::int32_t> parent_;
  std::vector<std::int32_t> l_col_ptr_;
  // Pattern of the permuted upper triangle the symbolic analysis was run
  // on; refactor() validates against it.
  std::vector<std::int32_t> pattern_col_ptr_;
  std::vector<std::int32_t> pattern_row_idx_;
  // Numeric data.
  std::vector<std::int32_t> l_row_idx_;
  std::vector<double> l_values_;
  Vector d_;
  mutable Vector solve_scratch_;  // permuted RHS; reused across solves
  Status status_ = Status::kNotFactored;
};

}  // namespace gp::linalg
