// Assembly of the DSPP window program (Section IV-D / V of the paper) as a
// sparse QP, plus extraction of the structured solution.
//
// For a window of W future periods, the decision vector is
//   z = [ x_1 .. x_W | u_0 .. u_{W-1} | (xi_1 .. xi_W) ]
// over the usable (l, v) pairs, where x_t are the allocations in effect
// during future period t, u_t the reconfigurations, and xi optional
// unserved-demand slacks (enabled by soft_demand_penalty > 0, used by the
// competition game where a provider's quota may be transiently infeasible).
//
// Objective:  sum_t  p_t . x_t  +  sum_t  c_l u_t^2  (+ penalty * xi)
// Constraints per period t:
//   state      x_t - x_{t-1} - u_{t-1} = 0        (x_0 = initial state)
//   demand     sum_l x_t^{lv} / a_lv (+ xi_t^v) >= D_t^v
//   capacity   sum_v s x_t^{lv} <= C^l
//   sign       x >= 0, xi >= 0 (u free)
//
// The capacity-row duals lambda_{t,l} >= 0 are exposed: they are the prices
// Algorithm 2 uses to negotiate quotas between providers.
//
// Only the capacity rows couple access networks; every other row touches
// one network's pairs. WindowSolver uses that: a window is first solved
// per network by dspp::SeparableWindow without assembling this program, and
// the program below is built and handed to ADMM only when that path does
// not certify the window (a c = 0 pair, a binding capacity row, a soft
// window that leaves demand unserved). DESIGN.md §12.
#pragma once

#include <optional>

#include "dspp/model.hpp"
#include "qp/solver.hpp"

namespace gp::dspp {

/// Inputs that change every control period.
struct WindowInputs {
  linalg::Vector initial_state;             ///< x_0 per pair
  std::vector<linalg::Vector> demand;       ///< [t][v], t = 0..W-1 (periods k+1..k+W)
  std::vector<linalg::Vector> price;        ///< [t][l], $ per server per period
  std::optional<linalg::Vector> capacity_override;  ///< quota per DC (game); default C^l
  double soft_demand_penalty = 0.0;         ///< $ per unserved req/s per period; 0 = hard
};

/// Structured solution of a window program.
struct WindowSolution {
  qp::SolveStatus status = qp::SolveStatus::kNumericalError;
  std::vector<linalg::Vector> x;               ///< [t][pair]
  std::vector<linalg::Vector> u;               ///< [t][pair]
  std::vector<linalg::Vector> capacity_duals;  ///< [t][l], >= 0
  std::vector<linalg::Vector> unserved;        ///< [t][v] slack (empty when hard)
  double objective = 0.0;
  int solver_iterations = 0;  ///< ADMM iterations (0 when the separable path solved it)
  int active_set_steps = 0;   ///< separable path: PDAS + safeguard iterations, all networks

  bool ok() const { return status == qp::SolveStatus::kOptimal; }

  /// Marginal value of one unit of quota per data center: the sum of the
  /// capacity duals across the window (the congestion price lambda^{il}
  /// Algorithm 2 reports to the coordinator).
  linalg::Vector capacity_price() const;
};

/// Builds the QP once; solve with any qp::QpSolver and map back.
///
/// Receding-horizon and best-response callers solve the SAME program shape
/// every period with new data: update() rewrites only the parameters
/// (q, lower, upper) in place, keeping the P/A sparsity structure — which
/// lets a caching solver (AdmmSolver with cache_structure) skip scaling,
/// ordering and symbolic analysis, and often the factorization itself.
class WindowProgram {
 public:
  /// The PairIndex must have been built from the same model.
  WindowProgram(const DsppModel& model, const PairIndex& pairs, WindowInputs inputs);

  /// Parameter-only update: rewrites q, lower and upper for new inputs
  /// without re-assembling P or A. `model` and `pairs` must be the ones the
  /// program was built from (same pairs, horizon, reconfiguration costs,
  /// server size and soft/hard demand mode); new initial state, demand and
  /// price forecasts, capacity quota and penalty values are applied.
  void update(const DsppModel& model, const PairIndex& pairs, const WindowInputs& inputs);

  const qp::QpProblem& problem() const { return problem_; }
  std::size_t horizon() const { return horizon_; }
  std::size_t num_pairs() const { return num_pairs_; }

  /// Index of the x_{t, pair} variable within problem(). Used by the
  /// social-welfare builder to couple providers through shared capacity.
  std::size_t x_variable(std::size_t t, std::size_t pair) const;

  /// Index of the u_{t, pair} variable within problem().
  std::size_t u_variable(std::size_t t, std::size_t pair) const;

  /// Rows of problem(): the state equation of (t, pair), the demand row of
  /// (t, v) and the sign row x_{t, pair} >= 0. Used to lay a structured
  /// primal-dual point out as a solver warm start.
  std::size_t state_row(std::size_t t, std::size_t pair) const;
  std::size_t demand_row(std::size_t t, std::size_t v) const;
  std::size_t sign_row(std::size_t t, std::size_t pair) const;

  /// Maps a raw solver result back into the structured window solution.
  WindowSolution extract(const qp::QpResult& result) const;

  /// Convenience: solve with the given solver and extract.
  WindowSolution solve(qp::QpSolver& solver) const;

 private:
  /// Shared parameter writer: fills q and the constraint bounds from the
  /// inputs (everything except the P/A structure). Inputs must be validated.
  void write_parameters(const DsppModel& model, const PairIndex& pairs,
                        const WindowInputs& inputs);
  /// Shape/value checks shared by the constructor and update().
  void validate_inputs(const WindowInputs& inputs) const;

  std::size_t num_pairs_ = 0;
  std::size_t num_l_ = 0;
  std::size_t num_v_ = 0;
  std::size_t horizon_ = 0;
  bool soft_ = false;
  // Variable offsets.
  std::size_t x_offset_ = 0;
  std::size_t u_offset_ = 0;
  std::size_t slack_offset_ = 0;
  // Constraint-row offsets.
  std::size_t demand_row_offset_ = 0;
  std::size_t capacity_row_offset_ = 0;
  qp::QpProblem problem_;
};

}  // namespace gp::dspp
