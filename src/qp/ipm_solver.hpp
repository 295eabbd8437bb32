// Dense primal-dual interior-point QP solver (Mehrotra predictor-corrector).
//
// Internally converts the two-sided OSQP-form problem into
//
//   minimize    (1/2) x^T P x + q^T x
//   subject to  E x = f,  G x + s = h,  s >= 0
//
// and iterates Newton steps on the perturbed KKT conditions using this
// library's dense LDL^T with light Tikhonov regularization (the KKT matrix
// is then symmetric quasi-definite, so no pivoting is needed).
//
// The solver is O(n^3) per iteration and intended for cross-validating the
// sparse ADMM path in tests and for the small window programs that dominate
// the paper's experiments. Duals are mapped back to the two-sided
// convention: y_i > 0 pushes against the upper bound, y_i < 0 against the
// lower bound.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/dense_matrix.hpp"
#include "qp/solver.hpp"

namespace gp::qp {

/// Settings of IpmSolver that callers choose.
struct IpmSettings {
  double tolerance = 1e-9;  ///< residual + complementarity target
};

/// Dense Mehrotra predictor-corrector solver (see file comment).
///
/// Like AdmmSolver, the setup work is cached across solve() calls on the
/// same instance: the dense materializations of P and A, the equality /
/// inequality row split, and the E/G block matrices are sized once per
/// problem structure (sparsity patterns + bound classification) and only
/// their VALUES are refreshed on later solves — the receding-horizon and
/// cross-validation callers re-solve the identical structure repeatedly.
class IpmSolver final : public QpSolver {
 public:
  IpmSolver() = default;
  explicit IpmSolver(IpmSettings settings) : settings_(settings) {}

  QpResult solve(const QpProblem& problem) override;

  /// Drops the cached dense materializations; the next solve rebuilds them.
  void invalidate_cache();

 private:
  /// Row of the inequality block and where it came from in the two-sided
  /// form (G x <= h rows: a_i x <= upper_i, or -a_i x <= -lower_i).
  struct InequalityRow {
    std::size_t source_row = 0;  ///< row in the original A
    bool is_upper = false;       ///< true: a_i x <= upper; false: -a_i x <= -lower
  };

  bool cache_matches(const QpProblem& problem,
                     const std::vector<std::uint8_t>& row_kind) const;
  /// (Re)allocates the split and the dense blocks for a new structure.
  void rebuild_structure(const QpProblem& problem, std::vector<std::uint8_t> row_kind);
  /// Refreshes every cached dense value from `problem` (no allocation).
  void refresh_values(const QpProblem& problem);

  IpmSettings settings_;

  // --- Structure cache (see class comment). row_kind is 1 for an equality
  // row, else the bitwise OR of 2 (finite upper) and 4 (finite lower).
  bool has_cache_ = false;
  std::vector<std::int32_t> cached_p_col_ptr_, cached_p_row_idx_;
  std::vector<std::int32_t> cached_a_col_ptr_, cached_a_row_idx_;
  std::vector<std::uint8_t> cached_row_kind_;
  std::vector<std::size_t> equality_rows_;
  std::vector<InequalityRow> inequality_rows_;
  linalg::DenseMatrix a_dense_, p_dense_;  // dense mirrors of A and P
  linalg::DenseMatrix e_mat_, g_mat_;      // equality / inequality blocks
  linalg::Vector f_, h_;                   // their right-hand sides
};

}  // namespace gp::qp
