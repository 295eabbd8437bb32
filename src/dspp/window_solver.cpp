#include "dspp/window_solver.hpp"

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace gp::dspp {

WindowSolver::WindowSolver(const DsppModel& model, const PairIndex& pairs,
                           WindowSolverSettings settings)
    : model_(&model), pairs_(&pairs), settings_(settings), solver_(settings.solver) {
  if (SeparableWindow::applies_to(model, pairs)) separable_.emplace(model, pairs);
}

WindowSolution WindowSolver::solve(WindowInputs inputs) {
  const bool metrics_on = obs::metrics_enabled();
  long long* reason = nullptr;
  const char* reason_name = nullptr;
  bool warm_from_separable = false;
  if (!separable_) {
    reason = &path_stats_.fallback_zero_reconfig;
    reason_name = "window.fallback.zero_reconfig";
  } else {
    const SeparableOutcome outcome =
        separable_->solve(inputs, settings_.reuse_solver_state, settings_.max_lanes);
    if (separable_->last_reused()) {
      ++path_stats_.relaxation_reused;
      if (metrics_on) obs::Registry::global().counter("window.relaxation_reused").add(1);
    } else {
      path_stats_.safeguard_runs += separable_->last_safeguard_runs();
      if (metrics_on) {
        auto& registry = obs::Registry::global();
        registry.counter("window.safeguard_runs").add(separable_->last_safeguard_runs());
        auto& steps = registry.histogram("window.active_set_steps");
        for (std::size_t v = 0; v < separable_->num_networks(); ++v) {
          steps.record(separable_->last_steps(v));
        }
      }
    }
    if (outcome == SeparableOutcome::kCertified) {
      ++path_stats_.separable;
      if (metrics_on) obs::Registry::global().counter("window.separable_solves").add(1);
      return separable_->solution(inputs);
    }
    // A hard window's ADMM starts from the separable point. A soft one (a
    // best response) starts from its own last iterate: measured on
    // tenant_day, that needs fewer iterations than the separable point,
    // which ignores the binding quota.
    warm_from_separable = inputs.soft_demand_penalty == 0.0;
    if (outcome == SeparableOutcome::kCapacityViolated) {
      reason = &path_stats_.fallback_capacity;
      reason_name = "window.fallback.capacity";
    } else if (outcome == SeparableOutcome::kSlackNeeded) {
      reason = &path_stats_.fallback_slack;
      reason_name = "window.fallback.slack";
    } else {
      reason = &path_stats_.fallback_uncertified;
      reason_name = "window.fallback.uncertified";
    }
  }
  ++*reason;
  if (metrics_on) {
    auto& registry = obs::Registry::global();
    registry.counter("window.fallback_solves").add(1);
    registry.counter(reason_name).add(1);
  }
  if (obs::TelemetryFrame* frame = obs::timeline_frame()) frame->window_fallback = 1.0;

  if (settings_.reuse_solver_state && program_) {
    program_->update(*model_, *pairs_, inputs);
  } else {
    program_.emplace(*model_, *pairs_, std::move(inputs));
  }
  if (warm_from_separable) {
    linalg::Vector z, y;
    separable_->warm_start_point(*program_, z, y);
    solver_.warm_start(std::move(z), std::move(y));
  }
  WindowSolution solution = program_->solve(solver_);
  if (separable_) solution.active_set_steps = separable_->last_active_set_steps();
  return solution;
}

}  // namespace gp::dspp
