#include "control/mpc_controller.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dspp/provisioning.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace gp::control {

using linalg::Vector;

namespace {

/// The controller's window-solver configuration. Consecutive windows share
/// their sparsity pattern and differ only in forecasts, so warm-starting from
/// the previous solution is always safe here and typically cuts iterations
/// severalfold; the structure cache turns the per-step setup into a
/// refactorization (or skips it outright when the KKT data is unchanged).
dspp::BlockWindowSettings window_settings(const MpcSettings& settings) {
  dspp::BlockWindowSettings window;
  window.num_blocks = std::max<std::size_t>(settings.qp_blocks, 1);
  window.max_lanes = settings.qp_block_lanes;
  window.reuse_solver_state = settings.reuse_solver_state;
  window.solver = settings.solver;
  window.solver.auto_warm_start = settings.reuse_solver_state;
  window.solver.cache_structure = settings.reuse_solver_state;
  return window;
}

}  // namespace

MpcController::MpcController(dspp::DsppModel model, MpcSettings settings,
                             std::unique_ptr<SeriesPredictor> demand_predictor,
                             std::unique_ptr<SeriesPredictor> price_predictor)
    : model_(std::move(model)),
      pairs_(model_),
      settings_(settings),
      demand_predictor_(std::move(demand_predictor)),
      price_predictor_(std::move(price_predictor)),
      window_solver_(model_, pairs_, window_settings(settings_)) {
  require(settings_.horizon >= 1, "MpcController: horizon must be >= 1");
  require(demand_predictor_ != nullptr, "MpcController: null demand predictor");
  require(price_predictor_ != nullptr, "MpcController: null price predictor");
  require(settings_.qp_blocks <= 1 || settings_.soft_demand_penalty == 0.0,
          "MpcController: qp_blocks > 1 requires hard demand constraints");
}

void MpcController::set_capacity_quota(std::optional<Vector> quota) {
  if (quota) {
    require(quota->size() == model_.num_datacenters(),
            "set_capacity_quota: quota size != L");
    for (double q : *quota) require(q > 0.0, "set_capacity_quota: quota must be > 0");
  }
  quota_ = std::move(quota);
}

MpcStepResult MpcController::step(const Vector& state, const Vector& demand,
                                  const Vector& price) {
  require(state.size() == pairs_.num_pairs(), "MpcController::step: state size != pairs");
  require(demand.size() == model_.num_access_networks(),
          "MpcController::step: demand size != V");
  require(price.size() == model_.num_datacenters(), "MpcController::step: price size != L");

  obs::Span span("mpc.step");
  const bool metrics_on = obs::metrics_enabled();
  obs::TelemetryFrame* frame = obs::timeline_frame();
  if ((metrics_on || frame != nullptr) && !last_demand_forecast_.empty()) {
    // One-step-ahead predictor error: the forecast made last period for
    // "now" versus the demand just observed (relative L2).
    double err_sq = 0.0, ref_sq = 0.0;
    for (std::size_t v = 0; v < demand.size(); ++v) {
      const double diff = last_demand_forecast_[v] - demand[v];
      err_sq += diff * diff;
      ref_sq += demand[v] * demand[v];
    }
    const double rel_err = std::sqrt(err_sq) / std::max(std::sqrt(ref_sq), 1e-12);
    if (metrics_on) {
      obs::Registry::global().histogram("mpc.demand_forecast_rel_err").record(rel_err);
    }
    if (obs::tracing_enabled()) {
      obs::Tracer::global().counter("mpc.demand_forecast_rel_err", rel_err);
    }
    if (frame != nullptr) frame->forecast_rel_err = rel_err;
  }

  demand_predictor_->observe(demand);
  price_predictor_->observe(price);

  dspp::WindowInputs inputs;
  inputs.initial_state = state;
  inputs.demand = demand_predictor_->forecast(settings_.horizon);
  inputs.price = price_predictor_->forecast(settings_.horizon);
  inputs.capacity_override = quota_;
  inputs.soft_demand_penalty = settings_.soft_demand_penalty;
  if ((metrics_on || frame != nullptr) && !inputs.demand.empty()) {
    last_demand_forecast_ = inputs.demand.front();
  }

  // The window shape is fixed for the controller's lifetime, so after the
  // first step the solver only rewrites the parameters (forecasts, initial
  // state, quota) in place instead of re-assembling the QP.
  const dspp::WindowSolution solution = window_solver_.solve(std::move(inputs));

  MpcStepResult result;
  result.status = solution.status;
  result.solver_iterations = solution.solver_iterations;
  if (!solution.ok()) {
    // Keep the previous allocation when the window program fails; the
    // caller can inspect `status` (e.g. primal infeasible under a quota).
    result.control.assign(pairs_.num_pairs(), 0.0);
    result.next_state = state;
  } else {
    result.solved = true;
    result.window_objective = solution.objective;
    result.control = solution.u.front();
    result.next_state = linalg::add(state, result.control);
    // Clamp solver noise: states are non-negative by construction.
    for (double& x : result.next_state) x = std::max(0.0, x);
    result.capacity_price = solution.capacity_price();
    if (!solution.unserved.empty()) {
      for (double value : solution.unserved.front()) result.unserved_next += value;
    }
  }
  if (frame != nullptr) {
    // Planned SLA-penalty cost for the applied period: the soft-constraint
    // price of the unserved demand the window solution accepts at k+1
    // (stays 0 under hard demand constraints).
    frame->cost_sla_penalty = settings_.soft_demand_penalty * result.unserved_next;
  }
  if (metrics_on) {
    auto& registry = obs::Registry::global();
    registry.counter("mpc.steps").add(1);
    if (!result.solved) registry.counter("mpc.failed_steps").add(1);
    registry.histogram("mpc.step_ms").record(span.elapsed_ms());
    registry.histogram("mpc.solver_iterations_per_step").record(result.solver_iterations);
  }
  return result;
}

Vector MpcController::provision_for(const Vector& demand, const Vector& price) {
  require(demand.size() == model_.num_access_networks(), "provision_for: demand size != V");
  require(price.size() == model_.num_datacenters(), "provision_for: price size != L");
  dspp::DsppModel scoped = model_;
  if (quota_) scoped.capacity = *quota_;
  qp::AdmmSolver solver(settings_.solver);
  return dspp::min_cost_placement(scoped, pairs_, demand, price, solver);
}

}  // namespace gp::control
