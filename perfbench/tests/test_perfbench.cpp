// The benchmark's own tests: the percentile rule, the ledger arithmetic,
// and that the instrumentation (forwarding predictor decorators plus the
// iteration-recording policy closure) leaves the run bit-identical to
// make_policy's policy().
#include <gtest/gtest.h>

#include "ledger.hpp"
#include "obs/timeline.hpp"
#include "scenario/policy.hpp"
#include "scenario/registry.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(n - i);  // unsorted
  return values;
}

TEST(TailPercentile, KeepsP90WhenTenSamplesLieBeyond) {
  const Tail tail = tail_percentile(ramp(100));
  EXPECT_EQ(tail.level, 90.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_DOUBLE_EQ(tail.value, percentile(ramp(100), 90.0));
  EXPECT_EQ(tail_percentile(ramp(5000)).level, 90.0);
}

TEST(TailPercentile, LowersTheLevelForShortRuns) {
  EXPECT_EQ(tail_percentile(ramp(99)).level, 89.0);
  const Tail tail = tail_percentile(ramp(50));
  EXPECT_EQ(tail.level, 80.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail_percentile(ramp(20)).level, 50.0);
}

TEST(TailPercentile, RefusesRunsTooShortForAnyTail) {
  EXPECT_THROW(tail_percentile(ramp(19)), std::invalid_argument);
  EXPECT_THROW(tail_percentile({}), std::invalid_argument);
}

TEST(Percentile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

TEST(Ledger, SplitsAPeriodAtItsStamps) {
  const auto t0 = Clock::time_point{};
  const auto at = [t0](double ms) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
  };
  PeriodStamps first{at(0.0), at(5.0), at(6.5), at(9.0), 1.25};
  PeriodStamps second{at(10.0), at(13.0), at(13.0), at(13.0), 0.5};
  const auto rows = ledger({first, second}, at(14.0));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].period_ms, 10.0);
  EXPECT_DOUBLE_EQ(rows[0].predict_ms, 1.25);
  EXPECT_DOUBLE_EQ(rows[0].decide_ms, 3.75);
  EXPECT_DOUBLE_EQ(rows[0].policy_ms(), 5.0);
  EXPECT_DOUBLE_EQ(rows[0].route_sla_ms, 1.5);
  EXPECT_DOUBLE_EQ(rows[0].observer_ms, 2.5);
  EXPECT_DOUBLE_EQ(rows[0].other_ms, 1.0);
  // The last period ends at the run's return.
  EXPECT_DOUBLE_EQ(rows[1].period_ms, 4.0);
  EXPECT_DOUBLE_EQ(rows[1].other_ms, 1.0);
  EXPECT_DOUBLE_EQ(rows[1].route_sla_ms, 0.0);
  EXPECT_LE(max_residual_ms(rows), 1e-12);
}

TEST(Ledger, ResidualExposesAnInconsistentPart) {
  const auto t0 = Clock::time_point{};
  PeriodStamps stamps{t0, t0 + std::chrono::milliseconds(4), t0 + std::chrono::milliseconds(4),
                      t0 + std::chrono::milliseconds(4), 0.0};
  LedgerRow row = ledger_row(stamps, t0 + std::chrono::milliseconds(8));
  EXPECT_DOUBLE_EQ(row.other_ms, 4.0);
  EXPECT_EQ(row.residual_ms, 0.0);
  // A predictor time larger than the policy call cannot come from the clock
  // reads above; the split stays conserved because decide absorbs it.
  stamps.predict_ms = 6.0;
  row = ledger_row(stamps, t0 + std::chrono::milliseconds(8));
  EXPECT_DOUBLE_EQ(row.decide_ms, -2.0);
  EXPECT_LE(std::abs(row.residual_ms), 1e-12);
}

TEST(BitIdentical, ComparesBitsNotValues) {
  EXPECT_TRUE(bit_identical({1.0, 2.0}, {1.0, 2.0}));
  EXPECT_FALSE(bit_identical({0.0}, {-0.0}));
  EXPECT_FALSE(bit_identical({1.0}, {1.0, 2.0}));
  const double nan = std::nan("");
  EXPECT_TRUE(bit_identical({nan}, {nan}));
}

// The instrumented controller and closure must reproduce make_policy's
// policy() exactly: same per-period costs and the same ADMM iterations.
TEST(Instrumentation, IsBitIdenticalToMakePolicy) {
  auto spec = gp::scenario::preset("paper_full");
  spec.sim.periods = 30;
  spec.sim.seed = 5;
  const auto bundle = gp::scenario::build(spec);
  gp::scenario::PolicySpec policy;
  policy.demand_predictor.kind = "seasonal";
  policy.price_predictor.kind = "seasonal";

  gp::obs::TimelineWriter::set_enabled(true);
  auto handle = gp::scenario::make_policy(bundle, spec, policy);
  auto reference_engine = gp::scenario::make_engine(bundle, spec);
  const auto reference = reference_engine.run(handle.policy());
  const auto frames = gp::obs::TimelineWriter::local().frames();

  PredictClock clock;
  auto controller = make_timed_controller(bundle, policy, clock);
  std::vector<PeriodStamps> stamps;
  std::vector<int> iterations;
  int begins = 0;
  auto engine = gp::scenario::make_engine(bundle, spec);
  const auto summary =
      engine.run(recording_policy(*controller, clock, stamps, iterations, [&] { ++begins; }));
  gp::obs::TimelineWriter::set_enabled(false);

  ASSERT_EQ(summary.periods.size(), reference.periods.size());
  ASSERT_EQ(frames.size(), reference.periods.size());
  EXPECT_EQ(summary.total_cost, reference.total_cost);
  for (std::size_t k = 0; k < summary.periods.size(); ++k) {
    EXPECT_EQ(summary.periods[k].resource_cost, reference.periods[k].resource_cost) << k;
    EXPECT_EQ(summary.periods[k].reconfig_cost, reference.periods[k].reconfig_cost) << k;
    EXPECT_EQ(summary.periods[k].sla_compliance, reference.periods[k].sla_compliance) << k;
    EXPECT_EQ(static_cast<double>(iterations[k]), frames[k].solver_iterations) << k;
  }
  EXPECT_EQ(stamps.size(), summary.periods.size());
  EXPECT_EQ(begins, static_cast<int>(summary.periods.size()));
  EXPECT_GT(clock.ms, 0.0);
}

// A short multi-tenant episode through the same runner the benchmark uses:
// repeatable bit for bit, at one lane as at all lanes, and its costs add up.
TEST(Episode, TenantPrefixIsDeterministicAcrossLanes) {
  EpisodeOptions options;
  options.seed = 3;
  options.periods = 4;
  const auto all_lanes = run_episode("tenant_day", options);
  options.lanes = 1;
  options.traced = true;
  const auto one_lane = run_episode("tenant_day", options);
  EXPECT_TRUE(bit_identical(all_lanes.quality, one_lane.quality));
  EXPECT_EQ(all_lanes.cost_total, all_lanes.cost_recomposed);
  EXPECT_EQ(all_lanes.periods.size(), 4u);
  EXPECT_EQ(all_lanes.game_at_max_iterations, 0);
  EXPECT_GT(one_lane.periods[1].admm_solves, 0.0);
  EXPECT_GT(one_lane.periods[1].best_responses, 0.0);
}

TEST(Workloads, SeedChangesTheSpecHashButNotTheShape) {
  for (const auto& name : workload_names()) {
    const auto a = describe_workload(name, 1);
    const auto b = describe_workload(name, 2);
    EXPECT_NE(a.spec_hash, b.spec_hash) << name;
    EXPECT_EQ(a.shape_hash, b.shape_hash) << name;
    EXPECT_GT(a.check_periods, 0u);
    EXPECT_LT(a.check_periods, a.episode_periods);
  }
  EXPECT_THROW(describe_workload("nope", 1), std::invalid_argument);
}

}  // namespace
