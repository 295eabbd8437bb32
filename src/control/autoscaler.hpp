// Threshold autoscaler baseline — the rule-based scaling loop cloud
// platforms shipped for years (scale out when utilization crosses a high
// water mark, scale in below a low water mark, with multiplicative steps
// and a cooldown). It neither predicts nor optimizes prices, which is
// exactly what the paper's MPC controller improves on; the ablation bench
// compares them head to head.
#pragma once

#include "dspp/assignment.hpp"
#include "dspp/model.hpp"

namespace gp::control {

/// Tuning of the threshold loop (defaults mirror common cloud presets).
/// The low watermark, the grow step and the per-pair floor are fixed in
/// autoscaler.cpp.
struct AutoscalerSettings {
  double high_utilization = 0.80;  ///< scale out above this (rho = lambda/mu)
  double scale_in_factor = 0.8;    ///< multiplicative shrink step
  int cooldown_periods = 1;        ///< periods to wait between actions per pair
};

/// Reactive utilization-threshold controller with the same step() shape as
/// the other baselines. Routing follows eq. (13) on the current allocation;
/// each (l, v) pair scales independently on its own utilization.
class ThresholdAutoscaler {
 public:
  ThresholdAutoscaler(dspp::DsppModel model, AutoscalerSettings settings = {});

  struct StepResult {
    linalg::Vector control;
    linalg::Vector next_state;
  };

  /// One control period: route `demand` over `state`, compare pair
  /// utilizations against the thresholds, scale. An access network with no
  /// allocation anywhere is bootstrapped at its cheapest feasible pair.
  StepResult step(const linalg::Vector& state, const linalg::Vector& demand,
                  const linalg::Vector& price);

  const dspp::PairIndex& pairs() const { return pairs_; }

 private:
  dspp::DsppModel model_;
  dspp::PairIndex pairs_;
  AutoscalerSettings settings_;
  std::vector<int> cooldown_;  ///< per pair, periods until next allowed action
};

}  // namespace gp::control
