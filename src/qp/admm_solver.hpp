// Operator-splitting QP solver in the style of OSQP
// (Stellato et al., "OSQP: an operator splitting solver for quadratic
// programs"), built on this library's sparse LDL^T.
//
// Each iteration solves one quasi-definite KKT system
//
//   [[ P + sigma I , A^T        ]  [x~]   [ sigma x - q      ]
//    [ A           , -diag(1/rho)]] [nu] = [ z - diag(1/rho) y ]
//
// whose factorization is computed once and reused (and recomputed only when
// rho adapts). Equality rows receive a stiffer rho than inequality rows.
// The solver reports unscaled primal/dual solutions, residuals, and detects
// primal/dual infeasibility via the standard certificate conditions.
#pragma once

#include "linalg/sparse_ldlt.hpp"
#include "linalg/sparse_simd.hpp"
#include "qp/scaling.hpp"
#include "qp/solver.hpp"

namespace gp::qp {

/// Primal regularization of the KKT matrix, OSQP's default. Declared here
/// because the kernel micro-bench factors the same KKT matrix; the rest of
/// the step rule is local to admm_solver.cpp.
inline constexpr double kAdmmSigma = 1e-6;

/// Settings of AdmmSolver that callers choose; the defaults follow OSQP's.
struct AdmmSettings {
  double eps_abs = 1e-6;         ///< absolute tolerance
  double eps_rel = 1e-6;         ///< relative tolerance
  int max_iterations = 20000;
  int check_interval = 25;       ///< residual / certificate check cadence
  bool scale_problem = true;
  /// Reuse the previous solve's (x, y) as the starting iterate when the
  /// problem dimensions match. Receding-horizon callers (the MPC loop, the
  /// game's best responses) solve near-identical problems back to back;
  /// warm starts typically cut iterations severalfold there.
  bool auto_warm_start = false;
  /// After convergence, refine the solution by solving the equality-
  /// constrained QP on the detected active set (OSQP's "polish" step):
  /// turns the first-order 1e-6-ish iterate into a near-exact KKT point,
  /// which sharpens the capacity duals the competition game consumes. The
  /// polish is accepted only when it actually reduces the KKT residuals.
  /// With cache_structure, its reduced-KKT factorization is reused across
  /// solves while the active set and (P, A) repeat (see ActiveSetPolisher).
  bool polish = false;
  /// Cache the solver's structural work (Ruiz scaling, minimum-degree ordering,
  /// symbolic analysis of the KKT matrix) across solve() calls on the SAME
  /// solver instance. When the next problem has the identical (P, A)
  /// sparsity pattern — the receding-horizon and best-response case, where
  /// only q/bounds (and possibly matrix values) change — setup reduces to a
  /// numeric refactorization; when the KKT values are also unchanged, the
  /// previous factorization is reused outright. A pattern change falls back
  /// to the full setup transparently.
  bool cache_structure = true;
};

/// Solver-owned scratch for the ADMM iteration: every per-iteration vector
/// lives here, sized once per problem shape and reused across solves (and
/// across WindowProgram::update re-solves). After the sizing solve, the
/// iteration loop performs ZERO heap allocations — enforced by the
/// alloc-probe test (tests/test_perf_kernels) and reported per solve in
/// SolveInfo::hot_loop_allocations.
struct AdmmWorkspace {
  linalg::Vector x, z, y;              // scaled iterates
  linalg::Vector rhs;                  // KKT right-hand side, size n + m
  linalg::Vector z_tilde, z_candidate, z_next;
  linalg::Vector ax, px, aty;          // residual products
  linalg::Vector delta_x, delta_y;     // certificate deltas
  linalg::Vector at_dy, p_dx, a_dx;    // certificate products
  linalg::Vector rho;                  // per-row step sizes
  linalg::Vector y_over_rho;           // y / rho, computed once per iteration
  linalg::Vector inv_d, inv_e;         // reciprocal scalings for residuals
  /// (Re)sizes every buffer and zeroes the iterates. std::vector::assign
  /// reuses capacity, so this allocates only when the shape grows.
  void resize(std::size_t n, std::size_t m);
};

/// Counters describing how much setup work the structure cache avoided.
struct AdmmCacheStats {
  long long solves = 0;
  long long structure_hits = 0;        ///< solves that reused scaling + symbolic analysis
  long long full_factorizations = 0;   ///< fresh ordering + symbolic + numeric factors
  long long refactorizations = 0;      ///< numeric-only factors (incl. in-solve rho updates)
  long long factorizations_skipped = 0;///< solves that reused the cached factor unchanged
  long long polish_factorizations = 0; ///< reduced-KKT factorizations in the polish step
  long long polish_reuses = 0;         ///< polishes that reused the previous one's factor
};

/// OSQP's polish step (see AdmmSettings::polish): solves the equality-
/// constrained QP on the active set detected from (x, y). The reduced KKT
/// factorization is kept and reused while the active rows repeat; the
/// caller must forget() it whenever P or A changes. The reduced KKT matrix
/// is then identical, so a reused polish is bitwise equal to a fresh one.
/// One instance per solver (not thread-safe).
class ActiveSetPolisher {
 public:
  /// Polishes (x, y) for `problem` (unscaled). Returns true and overwrites
  /// (x, y) when the polished point is a strictly better KKT point.
  bool polish(const QpProblem& problem, linalg::Vector& x, linalg::Vector& y);

  /// Drops the kept factorization: P or A differ from the last polish's.
  void forget() { factored_ = false; }

  /// Reduced-KKT factorizations run, and polishes that reused the kept one.
  long long factorizations() const { return factorizations_; }
  long long reuses() const { return reuses_; }

 private:
  linalg::SparseLdlt ldlt_;
  std::vector<std::int32_t> factored_rows_;  // active rows ldlt_ was built for
  bool factored_ = false;
  long long factorizations_ = 0;
  long long reuses_ = 0;
};

/// Sparse first-order QP solver (see file comment).
class AdmmSolver final : public QpSolver {
 public:
  AdmmSolver() = default;
  explicit AdmmSolver(AdmmSettings settings) : settings_(settings) {}

  QpResult solve(const QpProblem& problem) override;

  /// Provides an explicit starting point for the NEXT solve (unscaled
  /// primal x of size n and dual y of size m). Cleared after use.
  void warm_start(linalg::Vector x, linalg::Vector y);

  /// Drops the cached scaling/ordering/factorization; the next solve runs
  /// the full setup. (Also called internally when the pattern changes.)
  void invalidate_cache();

  /// Setup-reuse counters since construction (see AdmmCacheStats).
  const AdmmCacheStats& cache_stats() const { return cache_stats_; }

 private:
  QpResult solve_with(const QpProblem& original, bool use_cache);
  bool cache_matches(const QpProblem& problem) const;

  AdmmSettings settings_;
  linalg::Vector warm_x_;  // unscaled; empty = none
  linalg::Vector warm_y_;

  // --- Structure cache (see AdmmSettings::cache_structure). ---
  bool has_cache_ = false;
  // Sparsity patterns of the LAST problem solved (scaling preserves them).
  std::vector<std::int32_t> cached_p_col_ptr_, cached_p_row_idx_;
  std::vector<std::int32_t> cached_a_col_ptr_, cached_a_row_idx_;
  // Unscaled matrix values behind kkt_'s current factorization (with
  // cached_scaling_), for the values-unchanged fast path and the polish
  // factorization reuse.
  linalg::Vector cached_p_values_, cached_a_values_;
  Scaling cached_scaling_;
  linalg::Vector cached_rho_;               // per-row rho kkt_ was factored with
  std::vector<std::uint8_t> cached_row_class_;  // 0 ineq / 1 equality / 2 unbounded
  linalg::SparseLdlt kkt_;                  // persistent across solves
  // KKT upper triangle backing kkt_'s current factorization. Kept so the
  // in-solve adaptive-rho refactorization can rewrite the -1/rho diagonal
  // in place (each -1/rho_i is the LAST entry of column n+i, because every
  // A^T-block row in that column is < n) instead of reassembling triplets.
  linalg::SparseMatrix kkt_upper_;
  // SELL mirrors of the SCALED constraint matrix (A and A^T orientations):
  // every A product of a solve (warm-start A x, residual A x and A^T y,
  // certificate A^T delta_y and A delta_x) runs through them on every SIMD
  // tier, bit-identical across tiers (see sparse_simd.hpp). Pattern built
  // once per structure, values refreshed allocation-free per solve.
  linalg::SellMirror a_sell_;
  linalg::SellMirror at_sell_;
  // Polish step and its kept reduced-KKT factorization (used only when
  // settings_.polish is on; reuse needs cache_structure, which detects
  // unchanged matrices).
  ActiveSetPolisher polisher_;
  AdmmWorkspace workspace_;
  AdmmCacheStats cache_stats_;
};

}  // namespace gp::qp
