// Tests for the resource-competition game: random provider sampling,
// Algorithm 2 convergence, quota invariants, equilibrium quality against the
// social-welfare optimum (Theorem 1: PoS = 1), and the best-response
// property of the final iterate.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "game/competition.hpp"

namespace gp::game {
namespace {

using linalg::Vector;

topology::NetworkModel small_network() {
  // 2 data centers x 3 access networks, everything reachable.
  return topology::NetworkModel({"dc0", "dc1"}, {"an0", "an1", "an2"},
                                {{10.0, 20.0, 30.0}, {25.0, 15.0, 10.0}});
}

std::vector<ProviderConfig> sample_providers(std::size_t count, std::uint64_t seed,
                                             std::size_t horizon = 3) {
  Rng rng(seed);
  RandomProviderParams params;
  params.horizon = horizon;
  std::vector<ProviderConfig> providers;
  const auto network = small_network();
  for (std::size_t i = 0; i < count; ++i) {
    providers.push_back(make_random_provider(network, params, rng));
  }
  return providers;
}

TEST(RandomProvider, ProducesValidConfigs) {
  Rng rng(5);
  RandomProviderParams params;
  const auto network = small_network();
  for (int i = 0; i < 10; ++i) {
    const auto provider = make_random_provider(network, params, rng);
    EXPECT_NO_THROW(provider.model.validate());
    const dspp::PairIndex pairs(provider.model);  // throws if some AN unservable
    EXPECT_EQ(provider.initial_state.size(), pairs.num_pairs());
    ASSERT_EQ(provider.demand.size(), params.horizon);
    for (const auto& d : provider.demand) {
      ASSERT_EQ(d.size(), network.num_access_networks());
      for (double value : d) {
        EXPECT_GE(value, 1.0);
        EXPECT_LE(value, params.demand_max * 1.5);
      }
    }
    EXPECT_GE(provider.model.server_size, 1.0);
  }
}

TEST(RandomProvider, DeterministicPerSeed) {
  const auto a = sample_providers(3, 42);
  const auto b = sample_providers(3, 42);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(a[i].model.sla.mu, b[i].model.sla.mu);
    EXPECT_DOUBLE_EQ(a[i].demand[0][0], b[i].demand[0][0]);
  }
}

TEST(CompetitionGame, ValidatesConstruction) {
  auto providers = sample_providers(2, 1);
  EXPECT_THROW(CompetitionGame({}, Vector{100.0, 100.0}), PreconditionError);
  EXPECT_THROW(CompetitionGame(providers, Vector{100.0}), PreconditionError);  // L mismatch
  GameSettings bad;
  bad.soft_demand_penalty = 0.0;
  EXPECT_THROW(CompetitionGame(providers, Vector{100.0, 100.0}, bad), PreconditionError);
}

TEST(CompetitionGame, ConvergesWithAmpleCapacity) {
  // With capacity far above total demand no quota ever binds: duals are 0,
  // quotas stay, and the game converges in very few iterations.
  auto providers = sample_providers(3, 7);
  CompetitionGame game(std::move(providers), Vector{50000.0, 50000.0});
  const GameResult result = game.run();
  EXPECT_TRUE(result.converged);
  // 1 baseline iteration + the consecutive-stability streak.
  EXPECT_LE(result.iterations, 2 + kStableIterationsRequired);
  EXPECT_NEAR(result.total_unserved, 0.0, 1e-3);
}

TEST(CompetitionGame, QuotasPartitionCapacity) {
  auto providers = sample_providers(4, 11);
  const Vector capacity{60.0, 80.0};
  CompetitionGame game(std::move(providers), capacity);
  const GameResult result = game.run();
  ASSERT_EQ(result.quotas.size(), 4u);
  for (std::size_t l = 0; l < 2; ++l) {
    double total = 0.0;
    for (const auto& quota : result.quotas) {
      EXPECT_GT(quota[l], 0.0);
      total += quota[l];
    }
    EXPECT_NEAR(total, capacity[l], 1e-6 * capacity[l] + 1e-6);
  }
}

TEST(CompetitionGame, TightCapacityTakesMoreIterations) {
  // The paper's Fig. 7 trend: tighter bottlenecks converge slower.
  GameSettings settings;
  settings.epsilon = 0.01;
  auto iterations_for = [&](double capacity) {
    auto providers = sample_providers(5, 13);
    CompetitionGame game(std::move(providers), Vector{capacity, capacity}, settings);
    return game.run().iterations;
  };
  const int tight = iterations_for(150.0);
  const int loose = iterations_for(5000.0);
  EXPECT_GE(tight, loose);
  EXPECT_LE(loose, 2 + kStableIterationsRequired);
}

TEST(CompetitionGame, EquilibriumCostMatchesSocialWelfare) {
  // Theorem 1 (PoS = 1): the converged outcome should be close to the SWP
  // optimum. Use a moderately tight capacity so the constraint matters.
  GameSettings settings;
  settings.epsilon = 0.002;
  settings.max_iterations = 2000;
  auto providers = sample_providers(3, 17);
  CompetitionGame game(std::move(providers), Vector{400.0, 400.0}, settings);
  const GameResult equilibrium = game.run();
  ASSERT_TRUE(equilibrium.converged);
  const SocialWelfareResult welfare = game.solve_social_welfare();
  ASSERT_TRUE(welfare.solved);
  const double ratio = efficiency_ratio(equilibrium, welfare);
  EXPECT_GT(ratio, 0.9);   // the NE cannot genuinely beat the optimum
  EXPECT_LT(ratio, 1.25);  // ... and should be near it (PoS ~ 1)
}

TEST(CompetitionGame, SocialWelfareRespectsSharedCapacity) {
  auto providers = sample_providers(3, 19);
  std::vector<double> server_sizes;
  for (const auto& provider : providers) server_sizes.push_back(provider.model.server_size);
  const Vector capacity{120.0, 150.0};
  CompetitionGame game(std::move(providers), capacity);
  const SocialWelfareResult welfare = game.solve_social_welfare();
  ASSERT_TRUE(welfare.solved);
  // Aggregate size-weighted allocation per DC and period must fit in C^l
  // (eq. 16/17 of the paper).
  const std::size_t horizon = welfare.x.front().size();
  for (std::size_t t = 0; t < horizon; ++t) {
    for (std::size_t l = 0; l < capacity.size(); ++l) {
      double used = 0.0;
      for (std::size_t i = 0; i < game.num_providers(); ++i) {
        for (const std::size_t pair : game.pairs(i).pairs_of_datacenter(l)) {
          used += server_sizes[i] * welfare.x[i][t][pair];
        }
      }
      EXPECT_LE(used, capacity[l] * (1.0 + 1e-4) + 1e-3) << "t=" << t << " l=" << l;
    }
  }
  EXPECT_GT(welfare.total_cost, 0.0);
}

TEST(CompetitionGame, FinalIterateIsBestResponse) {
  // At the final quotas, no provider can reduce its own cost by deviating:
  // its solution is the optimum of ITS OWN QP given the quota, so any random
  // feasible perturbation must cost at least as much.
  GameSettings settings;
  settings.epsilon = 0.01;
  auto providers = sample_providers(2, 23);
  const auto providers_copy = providers;
  CompetitionGame game(std::move(providers), Vector{200.0, 200.0}, settings);
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);

  // Re-solve provider 0's window program at its final quota and compare
  // with scaled-up variants of its own allocation (feasible, costlier).
  const auto& provider = providers_copy[0];
  const dspp::PairIndex pairs(provider.model);
  dspp::WindowInputs inputs;
  inputs.initial_state = provider.initial_state;
  inputs.demand = provider.demand;
  inputs.price = provider.price;
  inputs.capacity_override = result.quotas[0];
  inputs.soft_demand_penalty = settings.soft_demand_penalty;
  const dspp::WindowProgram program(provider.model, pairs, std::move(inputs));
  const auto& problem = program.problem();

  // Build the raw optimal z from the stored solution and check that adding
  // servers anywhere (keeping feasibility) does not reduce the objective.
  qp::AdmmSolver solver;
  const qp::QpResult optimal = solver.solve(problem);
  ASSERT_TRUE(optimal.ok());
  Rng rng(29);
  for (int trial = 0; trial < 5; ++trial) {
    qp::QpResult perturbed = optimal;
    // Inflate x (and matching u) by 1-5%: stays demand- and sign-feasible
    // as long as capacity allows; skip the trial if it violates capacity.
    const double factor = 1.0 + rng.uniform(0.01, 0.05);
    for (double& z : perturbed.x) z *= factor;
    if (problem.constraint_violation(perturbed.x) > 1e-6) continue;
    EXPECT_GE(problem.objective(perturbed.x), optimal.objective - 1e-6);
  }
}

TEST(CompetitionGame, CostHistoryIsRecorded) {
  auto providers = sample_providers(3, 31);
  CompetitionGame game(std::move(providers), Vector{150.0, 150.0});
  const GameResult result = game.run();
  EXPECT_EQ(static_cast<int>(result.cost_history.size()), result.iterations);
  for (double cost : result.cost_history) EXPECT_GT(cost, 0.0);
}

TEST(EfficiencyRatio, ValidatesInputs) {
  GameResult equilibrium;
  SocialWelfareResult welfare;
  EXPECT_THROW(efficiency_ratio(equilibrium, welfare), PreconditionError);
  welfare.solved = true;
  welfare.total_cost = 0.0;
  EXPECT_THROW(efficiency_ratio(equilibrium, welfare), PreconditionError);
  welfare.total_cost = 2.0;
  equilibrium.total_cost = 3.0;
  EXPECT_DOUBLE_EQ(efficiency_ratio(equilibrium, welfare), 1.5);
}

}  // namespace
}  // namespace gp::game
