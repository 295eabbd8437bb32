// The resource controller: Model Predictive Control for DSPP (Algorithm 1).
//
// At the start of each control period the controller observes the current
// demand and server prices, updates its predictors, builds the window
// program over the prediction horizon W, solves it, and applies only the
// first control u_{k|k} — exactly the receding-horizon loop of Algorithm 1.
#pragma once

#include <memory>
#include <optional>

#include "control/predictor.hpp"
#include "dspp/window_solver.hpp"
#include "qp/admm_solver.hpp"

namespace gp::control {

/// Configuration of the MPC resource controller.
struct MpcSettings {
  std::size_t horizon = 5;            ///< W, prediction window length
  double soft_demand_penalty = 0.0;   ///< > 0 adds unserved-demand slacks
  /// Reuse solver state across control periods: the window program is kept
  /// and parameter-updated in place, the solver warm-starts from the
  /// previous solution, and the KKT structure cache (scaling, ordering,
  /// symbolic analysis) is carried over — consecutive windows share their
  /// sparsity pattern, so each MPC step becomes a parameter update plus a
  /// warm-started, refactorization-only (often factorization-free) solve.
  /// Disable only for benchmarking cold solves.
  bool reuse_solver_state = true;
  /// Must be 0 or 1: the constructor rejects larger values, because per-DC
  /// block decomposition was removed. The field remains only until
  /// perfbench/ (the control-period benchmark) stops reading it.
  std::size_t qp_blocks = 1;
  /// Lane cap for the window solver's concurrent per-network solves (0 =
  /// all pool lanes); results are bit-identical at any value.
  std::size_t qp_block_lanes = 0;
  qp::AdmmSettings solver;            ///< underlying QP solver settings
};

/// Outcome of one control period.
struct MpcStepResult {
  bool solved = false;
  qp::SolveStatus status = qp::SolveStatus::kNumericalError;
  linalg::Vector control;      ///< u_{k|k} per pair (applied)
  linalg::Vector next_state;   ///< x_{k+1} = x_k + u_{k|k}
  double window_objective = 0.0;
  linalg::Vector capacity_price;  ///< max capacity dual per DC over the window
  double unserved_next = 0.0;     ///< planned unserved demand at k+1 (soft mode)
  int solver_iterations = 0;     ///< ADMM iterations (0 on a separable window)
  int active_set_steps = 0;      ///< separable window: PDAS + safeguard iterations
};

/// Receding-horizon controller (see file comment). Thread-compatible: one
/// instance per control loop.
class MpcController {
 public:
  /// The controller copies `model`. Predictors are owned. The demand
  /// predictor forecasts V-dimensional rates; the price predictor forecasts
  /// L-dimensional $/server/period prices.
  MpcController(dspp::DsppModel model, MpcSettings settings,
                std::unique_ptr<SeriesPredictor> demand_predictor,
                std::unique_ptr<SeriesPredictor> price_predictor);

  /// Pinned in place: the window solver points into model_ / pairs_.
  MpcController(const MpcController&) = delete;
  MpcController(MpcController&&) = delete;
  MpcController& operator=(const MpcController&) = delete;
  MpcController& operator=(MpcController&&) = delete;

  /// One iteration of Algorithm 1. `state` is x_k per pair, `demand` the
  /// observed D_k (size V), `price` the observed p_k (size L).
  MpcStepResult step(const linalg::Vector& state, const linalg::Vector& demand,
                     const linalg::Vector& price);

  /// Restricts the capacity available to this provider (the game's quota
  /// C^i); nullopt restores the model's full capacity.
  void set_capacity_quota(std::optional<linalg::Vector> quota);

  const dspp::PairIndex& pairs() const { return pairs_; }
  const dspp::DsppModel& model() const { return model_; }

  /// Setup-reuse counters of the window solver's ADMM fallback solver (how
  /// many fallback steps reused the cached KKT structure / skipped
  /// factorization outright). provision_for's one-shot solve is not counted.
  const qp::AdmmCacheStats& solver_cache_stats() const {
    return window_solver_.cache_stats();
  }

  /// Which path solved each step's window: separable solves and ADMM
  /// fallbacks by reason (see dspp::WindowPathStats).
  const dspp::WindowPathStats& window_path_stats() const {
    return window_solver_.path_stats();
  }

  /// Minimal feasible allocation for a demand vector (cheapest placement
  /// with no reconfiguration cost) — useful for initializing x_0.
  linalg::Vector provision_for(const linalg::Vector& demand, const linalg::Vector& price);

 private:
  dspp::DsppModel model_;
  dspp::PairIndex pairs_;
  MpcSettings settings_;
  std::unique_ptr<SeriesPredictor> demand_predictor_;
  std::unique_ptr<SeriesPredictor> price_predictor_;
  std::optional<linalg::Vector> quota_;
  /// Solves every step's window program and keeps it warm across steps.
  /// Holds pointers into model_ / pairs_, which never move (the controller
  /// is neither copyable nor movable).
  dspp::WindowSolver window_solver_;
  /// One-step-ahead demand forecast from the previous step (empty before the
  /// first step); compared against the observed demand to measure predictor
  /// error when metrics are enabled.
  linalg::Vector last_demand_forecast_;
};

}  // namespace gp::control
