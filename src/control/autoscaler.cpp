#include "control/autoscaler.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gp::control {

using linalg::Vector;

namespace {

constexpr double kLowUtilization = 0.40;  ///< scale in below this
constexpr double kScaleOutFactor = 1.5;   ///< multiplicative grow step
constexpr double kMinServers = 0.0;       ///< floor per loaded pair
static_assert(kLowUtilization > 0.0, "ThresholdAutoscaler: low watermark must be > 0");
static_assert(kScaleOutFactor > 1.0, "ThresholdAutoscaler: scale-out factor <= 1");

}  // namespace

ThresholdAutoscaler::ThresholdAutoscaler(dspp::DsppModel model, AutoscalerSettings settings)
    : model_(std::move(model)), pairs_(model_), settings_(settings),
      cooldown_(pairs_.num_pairs(), 0) {
  require(settings_.high_utilization > kLowUtilization,
          "ThresholdAutoscaler: high watermark must exceed low watermark");
  require(settings_.high_utilization < 1.0,
          "ThresholdAutoscaler: high watermark must be below 1");
  require(settings_.scale_in_factor > 0.0 && settings_.scale_in_factor < 1.0,
          "ThresholdAutoscaler: scale-in factor outside (0, 1)");
  require(settings_.cooldown_periods >= 0, "ThresholdAutoscaler: negative cooldown");
}

ThresholdAutoscaler::StepResult ThresholdAutoscaler::step(const Vector& state,
                                                          const Vector& demand,
                                                          const Vector& price) {
  require(state.size() == pairs_.num_pairs(), "ThresholdAutoscaler: state size mismatch");
  require(demand.size() == model_.num_access_networks(),
          "ThresholdAutoscaler: demand size mismatch");
  require(price.size() == model_.num_datacenters(),
          "ThresholdAutoscaler: price size mismatch");

  Vector next = state;
  // Bootstrap: any access network with zero total allocation gets the
  // SLA-minimal allocation at its cheapest feasible pair.
  for (std::size_t v = 0; v < pairs_.num_access_networks(); ++v) {
    if (demand[v] <= 0.0) continue;
    double total_weight = 0.0;
    for (const std::size_t p : pairs_.pairs_of_access_network(v)) total_weight += next[p];
    if (total_weight > 0.0) continue;
    std::size_t cheapest = pairs_.pairs_of_access_network(v).front();
    for (const std::size_t p : pairs_.pairs_of_access_network(v)) {
      if (price[pairs_.datacenter_of(p)] < price[pairs_.datacenter_of(cheapest)]) cheapest = p;
    }
    next[cheapest] = std::max(1.0, pairs_.coefficient(cheapest) * demand[v]);
  }

  // Route on the (bootstrapped) allocation, then apply the thresholds.
  const dspp::Assignment assignment = dspp::assign_demand(pairs_, next, demand);
  for (std::size_t p = 0; p < pairs_.num_pairs(); ++p) {
    if (cooldown_[p] > 0) {
      --cooldown_[p];
      continue;
    }
    const double servers = next[p];
    if (servers <= 0.0) continue;
    const double utilization = assignment.rate[p] / (servers * model_.sla.mu);
    if (utilization > settings_.high_utilization) {
      next[p] = servers * kScaleOutFactor;
      cooldown_[p] = settings_.cooldown_periods;
    } else if (utilization < kLowUtilization) {
      next[p] = std::max({kMinServers, servers * settings_.scale_in_factor,
                          assignment.rate[p] > 0.0 ? 1e-3 : 0.0});
      cooldown_[p] = settings_.cooldown_periods;
    }
  }

  // Respect data-center capacity: proportional trim per DC if exceeded.
  for (std::size_t l = 0; l < pairs_.num_datacenters(); ++l) {
    double used = 0.0;
    for (const std::size_t p : pairs_.pairs_of_datacenter(l)) {
      used += model_.server_size * next[p];
    }
    if (used > model_.capacity[l]) {
      const double shrink = model_.capacity[l] / used;
      for (const std::size_t p : pairs_.pairs_of_datacenter(l)) next[p] *= shrink;
    }
  }

  StepResult result;
  result.next_state = next;
  result.control = linalg::sub(next, state);
  return result;
}

}  // namespace gp::control
