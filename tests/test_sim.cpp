// Integration tests for the simulation engine: the full observe -> control
// -> route -> measure loop with the MPC controller and the baselines, on a
// realistic multi-DC / multi-city scenario.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "obs/timeline.hpp"
#include "sim/engine.hpp"

namespace gp::sim {
namespace {

using linalg::Vector;

dspp::DsppModel geo_model(std::size_t num_dcs = 3, std::size_t num_cities = 6) {
  const auto sites = topology::default_datacenter_sites(num_dcs);
  const auto& all_cities = topology::us_cities24();
  const std::vector<topology::City> cities(all_cities.begin(),
                                           all_cities.begin() + num_cities);
  dspp::DsppModel model;
  model.network = topology::NetworkModel::from_geography(sites, cities);
  model.sla.mu = 100.0;
  model.sla.max_latency_ms = 120.0;
  model.reconfig_cost.assign(num_dcs, 0.001);
  model.capacity.assign(num_dcs, 2000.0);  // the paper's per-DC capacity
  return model;
}

workload::DemandModel geo_demand(std::size_t num_cities = 6, double per_capita = 2e-5) {
  const auto& all_cities = topology::us_cities24();
  const std::vector<topology::City> cities(all_cities.begin(),
                                           all_cities.begin() + num_cities);
  return workload::DemandModel::from_cities(cities, per_capita, workload::DiurnalProfile());
}

workload::ServerPriceModel geo_prices(std::size_t num_dcs = 3) {
  return workload::ServerPriceModel(topology::default_datacenter_sites(num_dcs),
                                    workload::VmType::kMedium,
                                    workload::ElectricityPriceModel());
}

control::MpcController make_mpc(const dspp::DsppModel& model, std::size_t horizon = 4) {
  control::MpcSettings settings;
  settings.horizon = horizon;
  return control::MpcController(model, settings,
                                std::make_unique<control::LastValuePredictor>(),
                                std::make_unique<control::LastValuePredictor>());
}

TEST(SimulationEngine, RunsFullDayWithMpc) {
  // A persistence predictor lags the morning/evening demand ramps, so the
  // provider deploys the paper's reservation-ratio cushion (Section IV-B).
  dspp::DsppModel model = geo_model();
  model.sla.reservation_ratio = 1.3;
  SimulationConfig config;
  config.periods = 24;
  auto controller = make_mpc(model);
  SimulationEngine engine(model, geo_demand(), geo_prices(), config);
  const SimulationSummary summary = engine.run(policy_from(controller));
  ASSERT_EQ(summary.periods.size(), 24u);
  EXPECT_EQ(summary.unsolved_periods, 0);
  EXPECT_GT(summary.total_cost, 0.0);
  EXPECT_GT(summary.total_resource_cost, 0.0);
  EXPECT_GT(summary.mean_compliance, 0.75);
  for (const auto& period : summary.periods) {
    EXPECT_GT(period.total_servers, 0.0);
    EXPECT_EQ(period.servers_per_dc.size(), 3u);
  }
}

TEST(SimulationEngine, OraclePredictionAchievesFullCompliance) {
  // With perfect demand/price foresight the MPC allocation always covers
  // the realized demand: compliance ~ 1 without any cushion.
  const auto model = geo_model();
  SimulationConfig config;
  config.periods = 24;
  const auto demand = geo_demand();
  const auto prices = geo_prices();
  SimulationEngine engine(model, demand, prices, config);
  // Build the exact traces the engine will observe (mid-period sampling).
  std::vector<Vector> demand_trace, price_trace;
  Rng unused(0);
  for (std::size_t k = 0; k <= config.periods + 8; ++k) {
    const double hour = static_cast<double>(k) * config.period_hours;
    demand_trace.push_back(engine.observe_demand(hour, unused));
    price_trace.push_back(engine.observe_price(hour));
  }
  control::MpcSettings settings;
  settings.horizon = 4;
  control::MpcController controller(
      model, settings, std::make_unique<control::OraclePredictor>(demand_trace),
      std::make_unique<control::OraclePredictor>(price_trace));
  const SimulationSummary summary = engine.run(policy_from(controller));
  EXPECT_EQ(summary.unsolved_periods, 0);
  EXPECT_GT(summary.mean_compliance, 0.999);
  EXPECT_GT(summary.worst_compliance, 0.99);
}

TEST(SimulationEngine, DeterministicForSameSeed) {
  const auto model = geo_model();
  SimulationConfig config;
  config.periods = 8;
  config.noisy_demand = true;
  config.seed = 77;
  auto controller_a = make_mpc(model);
  auto controller_b = make_mpc(model);
  SimulationEngine engine_a(model, geo_demand(), geo_prices(), config);
  SimulationEngine engine_b(model, geo_demand(), geo_prices(), config);
  const auto a = engine_a.run(policy_from(controller_a));
  const auto b = engine_b.run(policy_from(controller_b));
  ASSERT_EQ(a.periods.size(), b.periods.size());
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
  for (std::size_t k = 0; k < a.periods.size(); ++k) {
    EXPECT_DOUBLE_EQ(a.periods[k].total_demand, b.periods[k].total_demand);
  }
}

TEST(SimulationEngine, NoisyDemandDiffersFromMean) {
  const auto model = geo_model();
  SimulationConfig noisy;
  noisy.periods = 8;
  noisy.noisy_demand = true;
  SimulationConfig clean = noisy;
  clean.noisy_demand = false;
  auto controller_a = make_mpc(model);
  auto controller_b = make_mpc(model);
  SimulationEngine engine_noisy(model, geo_demand(), geo_prices(), noisy);
  SimulationEngine engine_clean(model, geo_demand(), geo_prices(), clean);
  const auto a = engine_noisy.run(policy_from(controller_a));
  const auto b = engine_clean.run(policy_from(controller_b));
  double diff = 0.0;
  for (std::size_t k = 0; k < a.periods.size(); ++k) {
    diff += std::abs(a.periods[k].total_demand - b.periods[k].total_demand);
  }
  EXPECT_GT(diff, 0.0);
}

TEST(SimulationEngine, MpcBeatsStaticOnCostUnderDiurnalDemand) {
  // Static provisioning for peak demand wastes money at night; MPC scales
  // down. This is the core economic argument of the paper.
  const auto model = geo_model();
  SimulationConfig config;
  config.periods = 24;
  const auto demand = geo_demand();
  const auto prices = geo_prices();

  auto mpc = make_mpc(model);
  SimulationEngine engine(model, demand, prices, config);
  const auto mpc_summary = engine.run(policy_from(mpc));

  // Peak demand: maximum over the day per access network.
  Vector peak(model.num_access_networks(), 0.0);
  for (double h = 0.0; h < 24.0; h += 1.0) {
    const auto rates = demand.mean_rates(h);
    for (std::size_t v = 0; v < peak.size(); ++v) peak[v] = std::max(peak[v], rates[v]);
  }
  control::StaticController static_controller(model, peak, engine.observe_price(12.0));
  SimulationEngine engine2(model, demand, prices, config);
  const auto static_summary = engine2.run(policy_from(static_controller));

  EXPECT_LT(mpc_summary.total_cost, static_summary.total_cost);
  EXPECT_GT(static_summary.mean_compliance, 0.99);  // static peak always covers demand
}

TEST(SimulationEngine, ReactiveChurnsMoreThanMpcOnNoisyDemand) {
  dspp::DsppModel model = geo_model();
  model.reconfig_cost.assign(model.num_datacenters(), 0.05);
  SimulationConfig config;
  config.periods = 24;
  config.noisy_demand = true;

  auto mpc = make_mpc(model);
  SimulationEngine engine(model, geo_demand(), geo_prices(), config);
  const auto mpc_summary = engine.run(policy_from(mpc));

  control::ReactiveController reactive(model);
  SimulationEngine engine2(model, geo_demand(), geo_prices(), config);
  const auto reactive_summary = engine2.run(policy_from(reactive));

  EXPECT_LT(mpc_summary.total_churn, reactive_summary.total_churn);
}

TEST(SimulationEngine, CsvOutputHasHeaderAndRows) {
  const auto model = geo_model();
  SimulationConfig config;
  config.periods = 4;
  auto controller = make_mpc(model);
  SimulationEngine engine(model, geo_demand(), geo_prices(), config);
  const auto summary = engine.run(policy_from(controller));
  std::ostringstream out;
  summary.write_csv(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("utc_hour"), std::string::npos);
  EXPECT_NE(text.find("servers_dc2"), std::string::npos);
  // 1 header + 4 data rows.
  EXPECT_EQ(static_cast<int>(std::count(text.begin(), text.end(), '\n')), 5);
}

TEST(SimulationEngine, FreezePricesHoldsStartHourPrice) {
  // An idle policy holds the allocation fixed; with frozen prices the
  // per-period resource cost must then be constant, while without freezing
  // it follows the diurnal electricity curves.
  const auto model = geo_model();
  auto idle = [](const linalg::Vector& state, const linalg::Vector&, const linalg::Vector&) {
    return PolicyOutcome{true, linalg::Vector(state.size(), 0.0), state};
  };
  SimulationConfig frozen_config;
  frozen_config.periods = 12;
  frozen_config.freeze_prices = true;
  SimulationConfig moving_config = frozen_config;
  moving_config.freeze_prices = false;
  SimulationEngine frozen_engine(model, geo_demand(), geo_prices(), frozen_config);
  SimulationEngine moving_engine(model, geo_demand(), geo_prices(), moving_config);
  const auto frozen = frozen_engine.run(idle);
  const auto moving = moving_engine.run(idle);
  double frozen_spread = 0.0, moving_spread = 0.0;
  for (const auto& period : frozen.periods) {
    frozen_spread = std::max(frozen_spread,
                             std::abs(period.resource_cost - frozen.periods[0].resource_cost));
  }
  for (const auto& period : moving.periods) {
    moving_spread = std::max(moving_spread,
                             std::abs(period.resource_cost - moving.periods[0].resource_cost));
  }
  EXPECT_NEAR(frozen_spread, 0.0, 1e-12);
  EXPECT_GT(moving_spread, 0.0);
}

TEST(SimulationEngine, InitialOverprovisionScalesStartState) {
  const auto model = geo_model();
  SimulationConfig base_config;
  base_config.periods = 1;
  SimulationConfig scaled_config = base_config;
  scaled_config.initial_overprovision = 3.0;
  // A do-nothing policy exposes the initial state in the period metrics.
  auto idle = [](const linalg::Vector& state, const linalg::Vector&, const linalg::Vector&) {
    return PolicyOutcome{true, linalg::Vector(state.size(), 0.0), state};
  };
  SimulationEngine engine_base(model, geo_demand(), geo_prices(), base_config);
  SimulationEngine engine_scaled(model, geo_demand(), geo_prices(), scaled_config);
  const auto base = engine_base.run(idle);
  const auto scaled = engine_scaled.run(idle);
  EXPECT_NEAR(scaled.periods[0].total_servers, 3.0 * base.periods[0].total_servers,
              1e-6 * scaled.periods[0].total_servers + 1e-6);
}

TEST(SimulationEngine, IntegerizedPolicyAppliesWholeServers) {
  const auto model = geo_model();
  const dspp::PairIndex pairs(model);
  SimulationConfig config;
  config.periods = 8;
  config.noisy_demand = true;
  auto controller = make_mpc(model);
  SimulationEngine engine(model, geo_demand(), geo_prices(), config);
  // Wrap and track every applied state through a spy layer.
  std::vector<linalg::Vector> applied;
  PlacementPolicy inner = policy_from(controller);
  PlacementPolicy integral = integerized(std::move(inner), model, pairs);
  PlacementPolicy spy = [&](const linalg::Vector& state, const linalg::Vector& demand,
                            const linalg::Vector& price) {
    auto outcome = integral(state, demand, price);
    applied.push_back(outcome.next_state);
    return outcome;
  };
  const auto summary = engine.run(spy);
  EXPECT_EQ(summary.unsolved_periods, 0);
  ASSERT_EQ(applied.size(), 8u);
  for (const auto& state : applied) {
    for (double x : state) EXPECT_NEAR(x, std::round(x), 1e-6);
  }
  // Rounding up cannot hurt compliance relative to the continuous run.
  auto controller2 = make_mpc(model);
  SimulationEngine engine2(model, geo_demand(), geo_prices(), config);
  const auto continuous = engine2.run(policy_from(controller2));
  EXPECT_GE(summary.mean_compliance, continuous.mean_compliance - 1e-9);
}

TEST(SimulationEngine, ValidatesConfiguration) {
  const auto model = geo_model();
  SimulationConfig config;
  config.periods = 0;
  EXPECT_THROW(SimulationEngine(model, geo_demand(), geo_prices(), config), PreconditionError);
  config.periods = 4;
  // Mismatched demand model (wrong V).
  EXPECT_THROW(SimulationEngine(model, geo_demand(3), geo_prices(), config),
               PreconditionError);
  // Mismatched price model (wrong L).
  EXPECT_THROW(SimulationEngine(model, geo_demand(), geo_prices(2), config),
               PreconditionError);
}

TEST(SimulationEngine, TimelineMatchesPerPeriodSummary) {
  // The acceptance check behind tools/gp_report: with the timeline armed,
  // the recorded frames alone reproduce the engine's per-period cost
  // trajectory (Fig. 4's raw material) exactly — same doubles, no re-run.
  dspp::DsppModel model = geo_model();
  model.sla.reservation_ratio = 1.3;
  SimulationConfig config;
  config.periods = 24;
  auto controller = make_mpc(model);
  SimulationEngine engine(model, geo_demand(), geo_prices(), config);

  obs::TimelineWriter::set_enabled(true);
  const SimulationSummary summary = engine.run(policy_from(controller));
  obs::TimelineWriter::set_enabled(false);

  const auto frames = obs::TimelineWriter::local().frames();
  ASSERT_EQ(frames.size(), summary.periods.size());
  long long fallback_rows = 0;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const PeriodMetrics& period = summary.periods[k];
    EXPECT_DOUBLE_EQ(frames[k].period, static_cast<double>(k));
    EXPECT_EQ(frames[k].utc_hour, period.utc_hour);
    EXPECT_EQ(frames[k].demand_total, period.total_demand);
    EXPECT_EQ(frames[k].servers_total, period.total_servers);
    EXPECT_EQ(frames[k].cost_resource, period.resource_cost);
    EXPECT_EQ(frames[k].cost_reconfig, period.reconfig_cost);
    EXPECT_EQ(frames[k].sla_compliance, period.sla_compliance);
    EXPECT_EQ(frames[k].mean_latency_ms, period.mean_latency_ms);
    EXPECT_EQ(frames[k].unserved_rate, period.unserved_rate);
    EXPECT_EQ(frames[k].solved, period.solved ? 1.0 : 0.0);
    // The row's servers and cost are measured against period k+1's demand.
    if (k + 1 < frames.size()) {
      EXPECT_EQ(frames[k].demand_served_total, summary.periods[k + 1].total_demand);
    }
    // Each period's window is solved by exactly one path: the separable
    // per-network solve (no ADMM iteration) or the ADMM fallback.
    if (frames[k].window_fallback == 1.0) {
      EXPECT_GE(frames[k].solver_iterations, 1.0);
      ++fallback_rows;
    } else {
      EXPECT_EQ(frames[k].window_fallback, 0.0);
      EXPECT_EQ(frames[k].solver_iterations, 0.0);
    }
    EXPECT_GT(frames[k].policy_ms, 0.0);
    EXPECT_GT(frames[k].period_ms, 0.0);
  }
  // Forecast error: -1 sentinel before the first forecast, an actual
  // relative error afterwards (the persistence predictor lags the ramps).
  EXPECT_EQ(frames[0].forecast_rel_err, -1.0);
  EXPECT_GE(frames[1].forecast_rel_err, 0.0);
  // The controller's path counts agree with the timeline, one solve a period.
  const dspp::WindowPathStats& paths = controller.window_path_stats();
  EXPECT_EQ(paths.separable + paths.fallbacks(), static_cast<long long>(frames.size()));
  EXPECT_EQ(paths.fallbacks(), fallback_rows);

  // A second run clears the thread ring: frames never accumulate across
  // runs (the sweep relies on this to snapshot per-run sidecars).
  auto controller2 = make_mpc(model);
  SimulationEngine engine2(model, geo_demand(), geo_prices(), config);
  obs::TimelineWriter::set_enabled(true);
  engine2.run(policy_from(controller2));
  obs::TimelineWriter::set_enabled(false);
  EXPECT_EQ(obs::TimelineWriter::local().frames().size(), summary.periods.size());
  obs::TimelineWriter::local().clear();
}

TEST(SimulationEngine, DisabledTimelineRecordsNoFrames) {
  obs::TimelineWriter::local().clear();
  dspp::DsppModel model = geo_model();
  SimulationConfig config;
  config.periods = 6;
  auto controller = make_mpc(model);
  SimulationEngine engine(model, geo_demand(), geo_prices(), config);
  obs::TimelineWriter::set_enabled(false);
  engine.run(policy_from(controller));
  EXPECT_EQ(obs::TimelineWriter::local().size(), 0u);
}

}  // namespace
}  // namespace gp::sim
