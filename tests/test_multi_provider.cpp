// Integration tests for the dynamic multi-tenant simulation: Algorithm 2
// inside the receding-horizon loop, with quota and best-response warm
// starting.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "sim/multi_provider.hpp"

namespace gp::sim {
namespace {

using linalg::Vector;

topology::NetworkModel shared_network() {
  return topology::NetworkModel({"dc0", "dc1"}, {"an0", "an1"},
                                {{12.0, 30.0}, {28.0, 14.0}});
}

TenantConfig make_tenant(double base_rate, double server_size, int utc_offset) {
  dspp::DsppModel model;
  model.network = shared_network();
  model.sla.mu = 100.0;
  model.sla.max_latency_ms = 100.0;
  model.reconfig_cost = {0.05, 0.05};
  model.capacity = {1e12, 1e12};  // quotas govern capacity
  model.server_size = server_size;
  return TenantConfig{
      std::move(model),
      workload::DemandModel({{base_rate, utc_offset, workload::DiurnalProfile()},
                             {base_rate * 0.6, utc_offset, workload::DiurnalProfile()}}),
      std::make_unique<control::LastValuePredictor>()};
}

workload::ServerPriceModel shared_prices() {
  return workload::ServerPriceModel(topology::default_datacenter_sites(2),
                                    workload::VmType::kMedium,
                                    workload::ElectricityPriceModel());
}

MultiTenantConfig default_config(std::size_t periods = 12) {
  MultiTenantConfig config;
  config.periods = periods;
  config.horizon = 3;
  config.game.epsilon = 0.05;
  return config;
}

TEST(MultiTenant, RunsWithAmpleCapacityAndServesEverything) {
  std::vector<TenantConfig> tenants;
  tenants.push_back(make_tenant(300.0, 1.0, -5));
  tenants.push_back(make_tenant(200.0, 2.0, -8));
  MultiTenantSimulation simulation(std::move(tenants), shared_prices(),
                                   Vector{5000.0, 5000.0}, default_config());
  const auto summary = simulation.run();
  ASSERT_EQ(summary.tenants.size(), 2u);
  ASSERT_EQ(summary.tenants[0].size(), 12u);
  EXPECT_NEAR(summary.total_unserved, 0.0, 1e-3);
  EXPECT_GT(summary.total_cost, 0.0);
  for (const bool converged : summary.game_converged) EXPECT_TRUE(converged);
  // After warm-up the allocation covers the demand in capacity units.
  const auto& last = summary.tenants[0].back();
  EXPECT_GT(last.servers, 0.0);
}

TEST(MultiTenant, TightCapacityCreatesUnservedDemand) {
  std::vector<TenantConfig> tenants;
  tenants.push_back(make_tenant(800.0, 1.0, -5));
  tenants.push_back(make_tenant(800.0, 1.0, -5));
  MultiTenantConfig config = default_config(8);
  config.utc_start_hour = 16.0;  // local busy hours from the start
  MultiTenantSimulation simulation(std::move(tenants), shared_prices(),
                                   Vector{4.0, 4.0},  // absurdly tight
                                   config);
  const auto summary = simulation.run();
  EXPECT_GT(summary.total_unserved, 1.0);
}

TEST(MultiTenant, DeterministicForSeed) {
  auto build = [] {
    std::vector<TenantConfig> tenants;
    tenants.push_back(make_tenant(300.0, 1.0, -5));
    tenants.push_back(make_tenant(150.0, 2.0, -6));
    MultiTenantConfig config = default_config(6);
    config.noisy_demand = true;
    config.seed = 99;
    return MultiTenantSimulation(std::move(tenants), shared_prices(),
                                 Vector{2000.0, 2000.0}, std::move(config));
  };
  auto a = build().run();
  auto b = build().run();
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
  for (std::size_t k = 0; k < a.game_iterations.size(); ++k) {
    EXPECT_EQ(a.game_iterations[k], b.game_iterations[k]);
  }
}

TEST(MultiTenant, WarmStartedQuotasSettle) {
  // With warm-started quotas the per-period negotiation should settle to
  // the trivial iteration count once demand stabilizes.
  std::vector<TenantConfig> tenants;
  tenants.push_back(make_tenant(400.0, 1.0, -5));
  tenants.push_back(make_tenant(400.0, 1.0, -5));
  MultiTenantConfig config = default_config(10);
  config.utc_start_hour = 10.0;  // inside the busy plateau: stable demand
  const int floor_iterations = 1 + game::kStableIterationsRequired;
  MultiTenantSimulation simulation(std::move(tenants), shared_prices(),
                                   Vector{60.0, 60.0}, std::move(config));
  const auto summary = simulation.run();
  // The tail periods should sit at (or very near) the floor.
  int tail_sum = 0;
  for (std::size_t k = summary.game_iterations.size() - 3;
       k < summary.game_iterations.size(); ++k) {
    tail_sum += summary.game_iterations[k];
  }
  EXPECT_LE(tail_sum, 3 * (floor_iterations + 2));
}

/// Three tenants with noisy demand sharing two DCs of `capacity` each. At 40
/// per DC no quota binds and every best response is solved network by
/// network; at 20 the quotas bind in some rounds, whose best responses reach
/// ADMM. `admm_only` zeroes DC 1's reconfiguration cost, which sends every
/// best response to ADMM (a c = 0 pair has no separable solve).
MultiTenantSimulation contended_simulation(MultiTenantConfig config, double capacity,
                                           bool admm_only = false) {
  std::vector<TenantConfig> tenants;
  tenants.push_back(make_tenant(500.0, 1.0, -5));
  tenants.push_back(make_tenant(400.0, 2.0, -6));
  tenants.push_back(make_tenant(300.0, 1.0, -8));
  if (admm_only) {
    for (TenantConfig& tenant : tenants) tenant.model.reconfig_cost[1] = 0.0;
  }
  config.utc_start_hour = 8.0;
  config.noisy_demand = true;
  config.seed = 7;
  config.game.epsilon = 0.01;
  return MultiTenantSimulation(std::move(tenants), shared_prices(), Vector{capacity, capacity},
                               std::move(config));
}

/// The window.fallback.capacity count over `body`.
template <typename Body>
long long capacity_fallbacks(Body&& body) {
  auto& registry = obs::Registry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  auto& counter = registry.counter("window.fallback.capacity");
  const long long before = counter.value();
  body();
  registry.set_enabled(was_enabled);
  return counter.value() - before;
}

TEST(MultiTenant, BitIdenticalAcrossLanes) {
  // One persistent game serves every period, so each tenant's solver state
  // (iterate, rho, factorizations) crosses periods; results must still not
  // depend on which pool lane ran which best response.
  MultiTenantConfig one_lane = default_config(10);
  one_lane.game.num_threads = 1;
  MultiTenantConfig four_lanes = default_config(10);
  four_lanes.game.num_threads = 4;
  MultiTenantSummary a;
  const long long binding =
      capacity_fallbacks([&] { a = contended_simulation(one_lane, 20.0).run(); });
  const auto b = contended_simulation(four_lanes, 20.0).run();

  EXPECT_GT(binding, 0);  // a quota binds, so ADMM solver state crosses periods too
  EXPECT_EQ(a.game_iterations, b.game_iterations);
  EXPECT_EQ(a.game_converged, b.game_converged);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    ASSERT_EQ(a.tenants[i].size(), b.tenants[i].size());
    for (std::size_t k = 0; k < a.tenants[i].size(); ++k) {
      EXPECT_EQ(a.tenants[i][k].demand, b.tenants[i][k].demand) << i << "," << k;
      EXPECT_EQ(a.tenants[i][k].servers, b.tenants[i][k].servers) << i << "," << k;
      EXPECT_EQ(a.tenants[i][k].cost, b.tenants[i][k].cost) << i << "," << k;
      EXPECT_EQ(a.tenants[i][k].unserved, b.tenants[i][k].unserved) << i << "," << k;
    }
  }
  EXPECT_EQ(a.total_cost, b.total_cost);
}

TEST(MultiTenant, WarmStartedBestResponsesCutIterations) {
  // ADMM best responses warm-start by default: each starts from its
  // tenant's previous solution (previous round, or previous period).
  // Turning that off restarts every solve from zero. A c = 0 DC keeps every
  // best response on ADMM.
  auto& registry = obs::Registry::global();
  const bool metrics_were_enabled = registry.enabled();
  registry.set_enabled(true);
  auto& iterations = registry.counter("admm.iterations");
  const auto admm_iterations = [&](MultiTenantConfig config) {
    const long long before = iterations.value();
    (void)contended_simulation(std::move(config), 40.0, /*admm_only=*/true).run();
    return iterations.value() - before;
  };
  MultiTenantConfig cold = default_config(10);
  cold.game.solver.auto_warm_start = false;
  const long long cold_iterations = admm_iterations(cold);
  const long long warm_iterations = admm_iterations(default_config(10));
  registry.set_enabled(metrics_were_enabled);

  EXPECT_GT(cold_iterations, 0);
  EXPECT_LE(static_cast<double>(warm_iterations), 0.5 * static_cast<double>(cold_iterations));
}

TEST(MultiTenant, ValidatesConstruction) {
  EXPECT_THROW(MultiTenantSimulation({}, shared_prices(), Vector{1.0, 1.0}, {}),
               PreconditionError);
  std::vector<TenantConfig> tenants;
  tenants.push_back(make_tenant(100.0, 1.0, 0));
  EXPECT_THROW(MultiTenantSimulation(std::move(tenants), shared_prices(), Vector{1.0},
                                     default_config()),
               PreconditionError);
  std::vector<TenantConfig> no_predictor;
  no_predictor.push_back(make_tenant(100.0, 1.0, 0));
  no_predictor[0].predictor.reset();
  EXPECT_THROW(MultiTenantSimulation(std::move(no_predictor), shared_prices(),
                                     Vector{1.0, 1.0}, default_config()),
               PreconditionError);
}

}  // namespace
}  // namespace gp::sim
