#include "sim/multi_provider.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gp::sim {

using linalg::Vector;

MultiTenantSimulation::MultiTenantSimulation(std::vector<TenantConfig> tenants,
                                             workload::ServerPriceModel prices,
                                             Vector capacity, MultiTenantConfig config)
    : tenants_(std::move(tenants)), prices_(std::move(prices)),
      capacity_(std::move(capacity)), config_(config) {
  require(!tenants_.empty(), "MultiTenantSimulation: need at least one tenant");
  require(config_.periods >= 1, "MultiTenantSimulation: need at least one period");
  require(config_.horizon >= 1, "MultiTenantSimulation: horizon must be >= 1");
  const std::size_t num_l = tenants_.front().model.num_datacenters();
  require(capacity_.size() == num_l, "MultiTenantSimulation: capacity size != L");
  require(prices_.num_datacenters() == num_l, "MultiTenantSimulation: price model L mismatch");
  for (auto& tenant : tenants_) {
    require(tenant.model.num_datacenters() == num_l,
            "MultiTenantSimulation: tenants disagree on the data-center set");
    require(tenant.demand.num_access_networks() == tenant.model.num_access_networks(),
            "MultiTenantSimulation: tenant demand model V mismatch");
    require(tenant.predictor != nullptr, "MultiTenantSimulation: null predictor");
    pair_index_.emplace_back(tenant.model);
  }
}

MultiTenantSummary MultiTenantSimulation::run() {
  Rng rng(config_.seed);
  const std::size_t n = tenants_.size();

  MultiTenantSummary summary;
  summary.tenants.assign(n, {});
  summary.tenant_total_costs.assign(n, 0.0);

  std::vector<Vector> states;
  for (std::size_t i = 0; i < n; ++i) {
    states.emplace_back(pair_index_[i].num_pairs(), 0.0);
  }
  std::optional<std::vector<Vector>> quotas;  // warm start across periods
  // One game for the whole run: built on period 0, then only its windows
  // move, so each provider's solver keeps its structure cache, adapted rho
  // and last iterate from one period to the next.
  std::optional<game::CompetitionGame> game;

  for (std::size_t k = 0; k < config_.periods; ++k) {
    const double hour =
        config_.utc_start_hour + static_cast<double>(k) * config_.period_hours;

    // Prices: RTO day-ahead curves are public, so the true future per-
    // period prices are used for the window (the same for every tenant).
    std::vector<Vector> price_window;
    for (std::size_t t = 1; t <= config_.horizon; ++t) {
      Vector price =
          prices_.server_prices(hour + (static_cast<double>(t) + 0.5) * config_.period_hours);
      linalg::scale(config_.period_hours, price);
      price_window.push_back(std::move(price));
    }

    // --- Observe per-tenant demand and predict windows. ---
    std::vector<game::ProviderConfig> providers;  // period 0 only
    std::vector<double> observed_total(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      auto& tenant = tenants_[i];
      Vector demand(tenant.demand.num_access_networks(), 0.0);
      for (std::size_t v = 0; v < demand.size(); ++v) {
        demand[v] = config_.noisy_demand
                        ? tenant.demand.sample_rate(v, hour, config_.period_hours, rng)
                        : tenant.demand.mean_rate(v, hour + config_.period_hours / 2.0);
        observed_total[i] += demand[v];
      }
      tenant.predictor->observe(demand);
      std::vector<Vector> forecast = tenant.predictor->forecast(config_.horizon);
      if (game) {
        game->set_window(i, states[i], std::move(forecast), price_window);
      } else {
        providers.push_back({tenant.model, states[i], std::move(forecast), price_window});
      }
    }

    // --- Negotiate (Algorithm 2) and apply the first step. ---
    if (!game) {
      // The first negotiation builds every tenant's solver state (scaling,
      // orderings, factorizations), which then lives for the whole run. It
      // runs on this thread alone so that state sits in one allocator arena
      // instead of being spread over the pool lanes' arenas, where the
      // later rounds' short-lived allocations fragment around it (perfbench
      // tenant_day on a 4-vCPU VM: peak RSS 9.3 MB built on two lanes,
      // 8.2-8.4 MB here).
      // Results are bit-identical at any lane count.
      game::GameSettings first_period = config_.game;
      first_period.num_threads = 1;
      game.emplace(std::move(providers), capacity_, first_period);
    }
    const game::GameResult result =
        game->run(config_.warm_start_quotas ? quotas : std::nullopt);
    game->set_num_threads(config_.game.num_threads);
    summary.game_iterations.push_back(result.iterations);
    summary.game_converged.push_back(result.converged);
    if (config_.warm_start_quotas) quotas = result.quotas;

    for (std::size_t i = 0; i < n; ++i) {
      const auto& solution = result.solutions[i];
      TenantPeriodMetrics metrics;
      metrics.demand = observed_total[i];
      if (!solution.x.empty()) {
        const Vector& u0 = solution.u.front();
        double cost = 0.0, servers = 0.0;
        for (std::size_t p = 0; p < pair_index_[i].num_pairs(); ++p) {
          const std::size_t l = pair_index_[i].datacenter_of(p);
          states[i][p] = std::max(0.0, states[i][p] + u0[p]);
          servers += tenants_[i].model.server_size * states[i][p];
          cost += tenants_[i].model.reconfig_cost[l] * u0[p] * u0[p];
        }
        // Rental at the next period's price: the window's first step.
        const Vector& price = price_window.front();
        for (std::size_t p = 0; p < pair_index_[i].num_pairs(); ++p) {
          cost += price[pair_index_[i].datacenter_of(p)] * states[i][p];
        }
        metrics.cost = cost;
        metrics.servers = servers;
        if (!solution.unserved.empty()) {
          for (double value : solution.unserved.front()) metrics.unserved += value;
        }
      }
      summary.tenant_total_costs[i] += metrics.cost;
      summary.total_cost += metrics.cost;
      summary.total_unserved += metrics.unserved;
      summary.tenants[i].push_back(metrics);
    }
  }
  return summary;
}

}  // namespace gp::sim
