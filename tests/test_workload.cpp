// Tests for the workload substrate: diurnal profiles, demand model / NHPP
// sampling, flash crowds, and the electricity / server price models.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "workload/demand.hpp"
#include "workload/price.hpp"

namespace gp::workload {
namespace {

TEST(Diurnal, BusyHoursAreHigh) {
  const DiurnalProfile profile;  // defaults: low 0.25, high 1.0, busy 8-17
  EXPECT_NEAR(profile.multiplier(12.0), 1.0, 1e-6);
  EXPECT_NEAR(profile.multiplier(3.0), 0.25, 1e-6);
  EXPECT_NEAR(profile.multiplier(22.0), 0.25, 1e-6);
}

TEST(Diurnal, RampIsMonotoneAndBounded) {
  const DiurnalProfile profile;
  double last = profile.multiplier(6.0);
  for (double h = 6.1; h <= 10.0; h += 0.1) {
    const double m = profile.multiplier(h);
    EXPECT_GE(m + 1e-12, last);
    EXPECT_GE(m, profile.low() - 1e-12);
    EXPECT_LE(m, profile.high() + 1e-12);
    last = m;
  }
}

TEST(Diurnal, WrapsAroundMidnight) {
  const DiurnalProfile profile;
  EXPECT_DOUBLE_EQ(profile.multiplier(25.0), profile.multiplier(1.0));
  EXPECT_DOUBLE_EQ(profile.multiplier(-1.0), profile.multiplier(23.0));
}

TEST(Diurnal, RejectsBadParameters) {
  EXPECT_THROW(DiurnalProfile(1.0, 0.5), PreconditionError);            // high < low
  EXPECT_THROW(DiurnalProfile(0.2, 1.0, 17.0, 8.0), PreconditionError); // start > end
  EXPECT_THROW(DiurnalProfile(0.2, 1.0, 8.0, 17.0, 0.0), PreconditionError);
}

TEST(Diurnal, LocalHourConversion) {
  EXPECT_DOUBLE_EQ(local_hour(12.0, -5), 7.0);
  EXPECT_DOUBLE_EQ(local_hour(2.0, -8), 18.0);   // wraps backwards
  EXPECT_DOUBLE_EQ(local_hour(23.0, 3), 2.0);    // wraps forwards
}

TEST(Demand, MeanRateFollowsProfileAndTimezone) {
  // Two sources with identical base rates in different time zones: at
  // 17:00 UTC, the EST city (12:00 local) is busy; the PST city (09:00
  // local) is also busy; at 07:00 UTC EST is 02:00 (quiet).
  DemandModel model({{100.0, -5, DiurnalProfile()}, {100.0, -8, DiurnalProfile()}});
  EXPECT_NEAR(model.mean_rate(0, 17.0), 100.0, 1e-6);
  EXPECT_NEAR(model.mean_rate(0, 7.0), 25.0, 1e-6);
  // Peak-vs-quiet must differ across zones at the same UTC instant.
  EXPECT_GT(model.mean_rate(0, 17.0), model.mean_rate(0, 7.0));
}

TEST(Demand, FromCitiesScalesWithPopulation) {
  const auto& cities = topology::us_cities24();
  const auto model = DemandModel::from_cities(cities, 1e-5, DiurnalProfile());
  ASSERT_EQ(model.num_access_networks(), 24u);
  // New York (index 0) has more demand than Charlotte (index 22) at every hour.
  for (double hour = 0.0; hour < 24.0; hour += 3.0) {
    EXPECT_GT(model.mean_rate(0, hour), model.mean_rate(22, hour));
  }
}

TEST(Demand, FlashCrowdMultipliesRateDuringWindow) {
  DemandModel model({{100.0, 0, DiurnalProfile(1.0, 1.0)}});  // flat profile
  model.add_flash_crowd({0, 10.0, 2.0, 5.0});
  EXPECT_NEAR(model.mean_rate(0, 9.5), 100.0, 1e-9);
  EXPECT_NEAR(model.mean_rate(0, 10.5), 500.0, 1e-9);
  EXPECT_NEAR(model.mean_rate(0, 12.5), 100.0, 1e-9);
}

TEST(Demand, SampleRateIsUnbiased) {
  DemandModel model({{50.0, 0, DiurnalProfile(1.0, 1.0)}});
  Rng rng(42);
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(model.sample_rate(0, 12.0, 0.25, rng));
  EXPECT_NEAR(gp::mean(samples), 50.0, 1.0);
  EXPECT_GT(gp::stddev(samples), 0.0);  // it is actually noisy
}

TEST(Demand, LargeRatesUseNormalApproximation) {
  // 1e6 req/s over an hour -> 3.6e9 expected arrivals, must not hang.
  DemandModel model({{1e6, 0, DiurnalProfile(1.0, 1.0)}});
  Rng rng(7);
  const double rate = model.sample_rate(0, 0.0, 1.0, rng);
  EXPECT_NEAR(rate, 1e6, 1e4);
}

TEST(Demand, TraceShapeAndDeterminism) {
  DemandModel model({{100.0, -5, DiurnalProfile()}, {10.0, -8, DiurnalProfile()}});
  Rng rng_a(1), rng_b(1);
  const auto noisy_a = model.trace(48, 0.5, 0.0, true, rng_a);
  const auto noisy_b = model.trace(48, 0.5, 0.0, true, rng_b);
  ASSERT_EQ(noisy_a.size(), 48u);
  ASSERT_EQ(noisy_a[0].size(), 2u);
  for (std::size_t k = 0; k < 48; ++k)
    for (std::size_t v = 0; v < 2; ++v) EXPECT_DOUBLE_EQ(noisy_a[k][v], noisy_b[k][v]);
  // Mean trace needs no RNG draws and is smooth.
  Rng rng_c(99);
  const auto clean = model.trace(48, 0.5, 0.0, false, rng_c);
  for (const auto& row : clean)
    for (double r : row) EXPECT_GE(r, 0.0);
}

TEST(Demand, PreconditionChecks) {
  EXPECT_THROW(DemandModel({}), PreconditionError);
  DemandModel model({{10.0, 0, DiurnalProfile()}});
  EXPECT_THROW(model.mean_rate(5, 0.0), PreconditionError);
  EXPECT_THROW(model.add_flash_crowd({3, 0.0, 1.0, 2.0}), PreconditionError);
  Rng rng(1);
  EXPECT_THROW(model.sample_rate(0, 0.0, 0.0, rng), PreconditionError);
}

TEST(Price, VmWattsMatchPaper) {
  EXPECT_DOUBLE_EQ(vm_watts(VmType::kSmall), 30.0);
  EXPECT_DOUBLE_EQ(vm_watts(VmType::kMedium), 70.0);
  EXPECT_DOUBLE_EQ(vm_watts(VmType::kLarge), 140.0);
}

TEST(Price, RegionalCurvesMatchFigure3Shape) {
  const ElectricityPriceModel model;
  // All prices within the figure's ~$10-$115 envelope, at all hours.
  for (double h = 0.0; h < 24.0; h += 0.5) {
    for (auto region : {topology::Region::kCalifornia, topology::Region::kTexas,
                        topology::Region::kSoutheast, topology::Region::kMidwest,
                        topology::Region::kEast}) {
      const double p = model.price(region, h);
      EXPECT_GT(p, 5.0) << to_string(region) << " @ " << h;
      EXPECT_LT(p, 120.0) << to_string(region) << " @ " << h;
    }
  }
  // California afternoon peak exceeds Texas at the same local hour (the
  // driver of the paper's Fig. 5 shift).
  EXPECT_GT(model.price(topology::Region::kCalifornia, 17.0),
            model.price(topology::Region::kTexas, 17.0) + 20.0);
  // Peak is in the afternoon, overnight is the trough.
  EXPECT_GT(model.price(topology::Region::kCalifornia, 17.0),
            model.price(topology::Region::kCalifornia, 3.0));
}

TEST(Price, ServerPriceConvertsUnits) {
  // 70 W at PUE 1.3 is 91 W -> 9.1e-5 MW; at $50/MWh that is $0.00455/h.
  const auto sites = topology::default_datacenter_sites(1);
  const ServerPriceModel model(sites, VmType::kMedium, ElectricityPriceModel(), 1.3, 0.0);
  const double utc_noon_local = 12.0 - sites[0].location.utc_offset_hours;
  const double electricity = model.electricity_price(0, utc_noon_local);
  EXPECT_NEAR(model.server_price(0, utc_noon_local), electricity * 91e-6, 1e-12);
}

TEST(Price, BasePriceAddsFloor) {
  const auto sites = topology::default_datacenter_sites(1);
  const ServerPriceModel with_base(sites, VmType::kSmall, ElectricityPriceModel(), 1.0, 0.08);
  const ServerPriceModel without(sites, VmType::kSmall, ElectricityPriceModel(), 1.0, 0.0);
  EXPECT_NEAR(with_base.server_price(0, 0.0) - without.server_price(0, 0.0), 0.08, 1e-12);
}

TEST(Price, TraceFollowsLocalTimePeaks) {
  // San Jose (UTC-8) afternoon peak at 17:00 local = 01:00 UTC next day.
  const auto sites = topology::default_datacenter_sites(4);
  const ServerPriceModel model(sites, VmType::kMedium, ElectricityPriceModel());
  const auto trace = model.trace(24, 1.0, 0.0);
  ASSERT_EQ(trace.size(), 24u);
  ASSERT_EQ(trace[0].size(), 4u);
  // Find the hour of maximum CA price in the trace; should be 0-2 UTC or
  // 23 UTC (17:00 +/- local).
  std::size_t argmax = 0;
  for (std::size_t k = 1; k < 24; ++k)
    if (trace[k][0] > trace[argmax][0]) argmax = k;
  const double local = local_hour(static_cast<double>(argmax) + 0.5,
                                  sites[0].location.utc_offset_hours);
  EXPECT_NEAR(local, 17.0, 1.51);
}

TEST(Price, PreconditionChecks) {
  const auto sites = topology::default_datacenter_sites(1);
  EXPECT_THROW(ServerPriceModel(sites, VmType::kSmall, ElectricityPriceModel(), 0.5),
               PreconditionError);
  EXPECT_THROW(ServerPriceModel({}, VmType::kSmall, ElectricityPriceModel()),
               PreconditionError);
  const ServerPriceModel model(sites, VmType::kSmall, ElectricityPriceModel());
  EXPECT_THROW(model.server_price(3, 0.0), PreconditionError);
}

}  // namespace
}  // namespace gp::workload
