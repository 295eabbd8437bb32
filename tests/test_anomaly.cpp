// Tests for the flash-crowd anomaly detector (including the guard's effect
// inside a simulated flash crowd).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "control/anomaly.hpp"
#include "sim/engine.hpp"

namespace gp {
namespace {

using linalg::Vector;

TEST(AnomalyDetector, FlagsSpikeAfterWarmup) {
  control::AnomalyDetector detector(0.25, 4.0, 4);
  Rng rng(11);
  for (int k = 0; k < 10; ++k) {
    EXPECT_FALSE(detector.observe({100.0 + rng.normal(0.0, 2.0)})) << "baseline at " << k;
  }
  EXPECT_TRUE(detector.observe({500.0}));
  EXPECT_TRUE(detector.anomalous());
  EXPECT_TRUE(detector.anomalous_dimensions()[0]);
}

TEST(AnomalyDetector, QuietDuringWarmup) {
  control::AnomalyDetector detector(0.25, 4.0, 8);
  for (int k = 0; k < 8; ++k) {
    EXPECT_FALSE(detector.observe({k == 4 ? 1000.0 : 100.0}));
  }
}

TEST(AnomalyDetector, TracksDriftWithoutFlagging) {
  // A slow ramp (5% per period) is normal growth, not an anomaly.
  control::AnomalyDetector detector;
  double level = 100.0;
  bool flagged = false;
  for (int k = 0; k < 40; ++k) {
    flagged = flagged || detector.observe({level});
    level *= 1.05;
  }
  EXPECT_FALSE(flagged);
}

TEST(AnomalyDetector, AdoptsSustainedSurgeEventually) {
  control::AnomalyDetector detector(0.3, 4.0, 4);
  for (int k = 0; k < 10; ++k) detector.observe({100.0});
  EXPECT_TRUE(detector.observe({400.0}));
  int flagged_periods = 1;
  for (int k = 0; k < 40; ++k) {
    if (detector.observe({400.0})) ++flagged_periods;
  }
  EXPECT_LT(flagged_periods, 30);  // the new level becomes normal
  EXPECT_FALSE(detector.anomalous());
}

TEST(AnomalyDetector, PerDimensionFlags) {
  control::AnomalyDetector detector(0.25, 4.0, 4);
  for (int k = 0; k < 8; ++k) detector.observe({50.0, 200.0});
  EXPECT_TRUE(detector.observe({300.0, 200.0}));
  EXPECT_TRUE(detector.anomalous_dimensions()[0]);
  EXPECT_FALSE(detector.anomalous_dimensions()[1]);
}

TEST(AnomalyDetector, ValidatesConstruction) {
  EXPECT_THROW(control::AnomalyDetector(0.0), PreconditionError);
  EXPECT_THROW(control::AnomalyDetector(1.0), PreconditionError);
  EXPECT_THROW(control::AnomalyDetector(0.2, -1.0), PreconditionError);
}

TEST(AnomalyGuard, ImprovesComplianceUnderFlashCrowd) {
  // A guarded policy inflates planned demand while the detector fires; the
  // guarded run must beat the unguarded one on compliance during a crowd.
  const auto sites = topology::default_datacenter_sites(2);
  const std::vector<topology::City> cities(topology::us_cities24().begin(),
                                           topology::us_cities24().begin() + 3);
  dspp::DsppModel model;
  model.network = topology::NetworkModel::from_geography(sites, cities);
  model.sla.mu = 100.0;
  model.sla.max_latency_ms = 120.0;
  model.reconfig_cost.assign(2, 0.001);
  model.capacity.assign(2, 2000.0);
  auto demand = workload::DemandModel::from_cities(cities, 1.5e-5,
                                                   workload::DiurnalProfile(0.8, 1.0));
  demand.add_flash_crowd({0, 8.0, 5.0, 4.0});
  const workload::ServerPriceModel prices(sites, workload::VmType::kMedium,
                                          workload::ElectricityPriceModel());
  sim::SimulationConfig config;
  config.periods = 20;
  config.noisy_demand = true;
  config.seed = 31;

  auto run = [&](bool guarded) {
    control::MpcSettings settings;
    settings.horizon = 3;
    control::MpcController controller(model, settings,
                                      std::make_unique<control::LastValuePredictor>(),
                                      std::make_unique<control::LastValuePredictor>());
    control::AnomalyDetector detector(0.3, 3.0, 4);
    sim::SimulationEngine engine(model, demand, prices, config);
    sim::PlacementPolicy policy = [&](const Vector& state, const Vector& observed,
                                      const Vector& price) {
      Vector planned = observed;
      if (detector.observe(observed) && guarded) {
        for (std::size_t v = 0; v < planned.size(); ++v) {
          if (detector.anomalous_dimensions()[v]) planned[v] *= 1.5;  // emergency cushion
        }
      }
      const auto result = controller.step(state, planned, price);
      return sim::PolicyOutcome{result.solved, result.control, result.next_state};
    };
    return engine.run(policy);
  };

  const auto unguarded = run(false);
  const auto guarded = run(true);
  EXPECT_GT(guarded.mean_compliance, unguarded.mean_compliance);
}

}  // namespace
}  // namespace gp
