// Sparse LDL^T factorization for symmetric quasi-definite matrices.
//
// Up-looking factorization in the style of Davis' LDL / QDLDL: a symbolic
// pass computes the elimination tree and exact column counts, then the
// numeric pass fills L and the signed diagonal D. Quasi-definite inputs
// (e.g. ADMM KKT matrices [[P + sigma I, A^T], [A, -rho^{-1} I]]) factor
// without pivoting for any symmetric permutation, which is what makes this
// the right kernel for the QP solver.
//
// L is kept twice: by columns (what the up-looking factorization appends
// to, and what the backward solve dots against) and by rows, columns
// ascending (what the forward solve gathers from). The row copy's pattern is
// built once per symbolic analysis and its values are refreshed after every
// numeric factorization, so solves stay bitwise equal to the column-form
// substitution at +12 bytes per nonzero of L (see DESIGN.md §6).
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
  /// tree, column counts, ordering). The pattern (col_ptr/row_idx of
  /// `upper`) is CHECKED against the one that was factored; a changed
  /// pattern returns kPatternMismatch and leaves the previous factorization
  /// intact — callers must fall back to a fresh factor(). An accepted
  /// refactor scatters the new values into the kept permuted matrix and
  /// allocates nothing.
  Status refactor(const SparseMatrix& upper);

  /// Solves A x = b in place; requires a successful factor(). Forward
  /// substitution gathers each row of L (reading b through the ordering);
  /// backward substitution divides by D, dots each column of L and writes
  /// b through the inverse ordering in the same pass. Uses a persistent
  /// scratch buffer, so after the first call at a given size the solve
  /// performs no heap allocation (the ADMM hot loop calls this once per
  /// iteration).
  void solve_in_place(Vector& b) const;

  /// Convenience out-of-place solve.
  Vector solve(std::span<const double> b) const;

  Status status() const { return status_; }

  /// Number of nonzeros in L (excluding the unit diagonal).
  std::int64_t l_nnz() const;

  /// Signed diagonal D (in permuted order); useful for inertia checks.
  std::span<const double> d() const { return d_; }

 private:
  /// Numeric LDL^T of permuted_ over the kept symbolic analysis.
  Status numeric_factor();

  std::int32_t n_ = 0;
  Permutation perm_;
  // Pattern of the (unpermuted) upper triangle the symbolic analysis was
  // run on; refactor() validates against it. The permutation is a bijection
  // on upper-triangle positions, so equal input patterns are exactly equal
  // permuted patterns.
  std::vector<std::int32_t> input_col_ptr_;
  std::vector<std::int32_t> input_row_idx_;
  // P A P^T's upper triangle, and where each input entry sits in it.
  SparseMatrix permuted_;
  std::vector<std::int32_t> positions_;
  // Symbolic data: the elimination tree and the patterns of L by columns
  // (rows ascending) and by rows (columns ascending).
  std::vector<std::int32_t> parent_;
  std::vector<std::int32_t> l_col_ptr_;
  std::vector<std::int32_t> l_row_idx_;
  std::vector<std::int32_t> l_row_ptr_;
  std::vector<std::int32_t> l_row_cols_;
  // Numeric data: L's values in both orders, and D.
  std::vector<double> l_values_;
  std::vector<double> l_row_values_;
  Vector d_;
  // Scratch of factor() and numeric_factor(), sized once per dimension.
  std::vector<std::int32_t> l_next_;
  std::vector<std::int32_t> flag_;
  std::vector<std::int32_t> pattern_;
  Vector work_;
  mutable Vector solve_scratch_;  // permuted solution; reused across solves
  Status status_ = Status::kNotFactored;

  friend struct SparseLdltProbe;  // tests: read access to the factor
};

}  // namespace gp::linalg
