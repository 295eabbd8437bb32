// Dynamic multi-tenant simulation: Section VI of the paper played out over
// time. Each control period every tenant (service provider) observes its
// own demand, forecasts a window, and the shared infrastructure runs the
// quota negotiation (Algorithm 2) to a W-MPC equilibrium; each tenant then
// applies the first step of its best response — the multi-provider
// counterpart of the single-provider MPC loop.
//
// Quotas are warm-started from the previous period's equilibrium, which is
// both realistic (allocations persist between negotiation rounds) and what
// keeps the per-period iteration count low once the system settles.
//
// One CompetitionGame serves the whole run: it is built on the first period
// and every later period only replaces each tenant's window (initial state,
// forecast, prices) through set_window(). Each tenant's best-response solver
// therefore keeps its structure cache, adapted rho, polish factorization and
// last iterate across periods, and its first solve of a period starts from
// the previous period's equilibrium response (unshifted).
#pragma once

#include <memory>

#include "control/predictor.hpp"
#include "game/competition.hpp"
#include "workload/demand.hpp"
#include "workload/price.hpp"

namespace gp::sim {

/// One tenant: its private environment, demand process and predictor.
struct TenantConfig {
  dspp::DsppModel model;  ///< same network as every tenant; own SLA/sizes/costs
  workload::DemandModel demand;
  std::unique_ptr<control::SeriesPredictor> predictor;
};

/// Run parameters for the shared-platform simulation.
struct MultiTenantConfig {
  std::size_t periods = 24;
  double period_hours = 1.0;
  double utc_start_hour = 0.0;
  std::size_t horizon = 3;       ///< W of each tenant's best-response window
  bool noisy_demand = false;
  std::uint64_t seed = 1;
  game::GameSettings game;       ///< Algorithm-2 settings per period
  bool warm_start_quotas = true;
};

/// Per-tenant, per-period record.
struct TenantPeriodMetrics {
  double demand = 0.0;     ///< observed req/s
  double servers = 0.0;    ///< size-weighted capacity units in use
  double cost = 0.0;       ///< rental + reconfiguration for the period
  double unserved = 0.0;   ///< planned unserved req/s at the applied step
};

/// Aggregates over a run.
struct MultiTenantSummary {
  std::vector<std::vector<TenantPeriodMetrics>> tenants;  ///< [tenant][period]
  std::vector<int> game_iterations;                       ///< per period
  std::vector<bool> game_converged;                       ///< per period
  std::vector<double> tenant_total_costs;
  double total_cost = 0.0;
  double total_unserved = 0.0;
};

/// The simulation (see file comment).
class MultiTenantSimulation {
 public:
  /// All tenants must share the data-center set; `capacity` is the shared
  /// C^l. Takes ownership of the tenants (they hold predictors).
  MultiTenantSimulation(std::vector<TenantConfig> tenants,
                        workload::ServerPriceModel prices, linalg::Vector capacity,
                        MultiTenantConfig config);

  MultiTenantSummary run();

  std::size_t num_tenants() const { return tenants_.size(); }

 private:
  std::vector<TenantConfig> tenants_;
  std::vector<dspp::PairIndex> pair_index_;
  workload::ServerPriceModel prices_;
  linalg::Vector capacity_;
  MultiTenantConfig config_;
};

}  // namespace gp::sim
