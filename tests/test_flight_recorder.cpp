// Tests for the flight-recorder pipeline: the convergence ring buffer, the
// invariant audits, spec/policy/bundle serialization round trips, the
// trace-driven scenario path, and SweepRunner's manifest + failure capture.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/audit.hpp"
#include "linalg/simd_dispatch.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "scenario/registry.hpp"
#include "scenario/serialize.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "scenario/trace.hpp"
#include "sim/engine.hpp"
#include "workload/demand.hpp"
#include "workload/price.hpp"

#include "temp_path.hpp"

namespace {

using gp::obs::ConvergenceRecorder;
using gp::obs::ConvergenceSample;

using gp::test_util::unique_temp_path;

// ----------------------------------------------------------------- recorder

TEST(RecorderTest, RingKeepsTheNewestSamplesOldestFirst) {
  ConvergenceRecorder recorder(4);
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    recorder.push("test.stream", i, 10.0 * i);
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total_pushed(), 10);
  const std::vector<ConvergenceSample> tail = recorder.tail();
  ASSERT_EQ(tail.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tail[i].step, static_cast<long long>(6 + i));  // 6,7,8,9
    EXPECT_EQ(tail[i].a, 10.0 * static_cast<double>(6 + i));
  }
  // tail(max) trims to the NEWEST max samples.
  const auto newest2 = recorder.tail(2);
  ASSERT_EQ(newest2.size(), 2u);
  EXPECT_EQ(newest2[0].step, 8);
  EXPECT_EQ(newest2[1].step, 9);

  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_pushed(), 0);
}

TEST(RecorderTest, WriteJsonlEmitsOneRecordLinePerSample) {
  ConvergenceRecorder recorder(8);
  recorder.push("admm.residual", 1, 0.5, 0.25, 1.0);
  recorder.push("admm.unsolved", 2, 0.1);
  std::ostringstream out;
  recorder.write_jsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"type\":\"record\""), std::string::npos);
  EXPECT_NE(text.find("\"stream\":\"admm.residual\""), std::string::npos);
  EXPECT_NE(text.find("\"stream\":\"admm.unsolved\""), std::string::npos);
}

TEST(RecorderTest, DisabledByDefaultAndToggles) {
  // GEOPLACE_RECORD is not set in the test environment.
  const bool was = ConvergenceRecorder::enabled();
  ConvergenceRecorder::set_enabled(false);
  EXPECT_FALSE(gp::obs::recording_enabled());
  ConvergenceRecorder::set_enabled(true);
  EXPECT_TRUE(gp::obs::recording_enabled());
  ConvergenceRecorder::set_enabled(was);
}

// ------------------------------------------------------------------- audits

TEST(AuditTest, CheckCountsViolationsPerNameAndInRegistry) {
  auto& registry = gp::obs::Registry::global();
  const bool metrics_were_enabled = registry.enabled();
  registry.set_enabled(true);
  gp::obs::Registry::reset_all();
  const bool was = gp::obs::audit::enabled();
  gp::obs::audit::set_enabled(true);
  gp::obs::audit::reset_thread_counts();

  EXPECT_TRUE(gp::obs::audit::check("test_invariant_ok", true, 1.0, 2.0));
  EXPECT_FALSE(gp::obs::audit::check("test_invariant_bad", false, 3.0, 2.0));
  EXPECT_FALSE(gp::obs::audit::check("test_invariant_bad", false, 4.0, 2.0));

  EXPECT_EQ(gp::obs::audit::thread_violations(), 2);
  const auto counts = gp::obs::audit::thread_counts();
  ASSERT_EQ(counts.size(), 1u);  // only violated names appear
  EXPECT_EQ(counts[0].first, "test_invariant_bad");
  EXPECT_EQ(counts[0].second, 2);
  EXPECT_EQ(registry.counter("obs.audit.checks").value(), 3);
  EXPECT_EQ(registry.counter("obs.audit.test_invariant_bad").value(), 2);

  gp::obs::audit::reset_thread_counts();
  EXPECT_EQ(gp::obs::audit::thread_violations(), 0);
  EXPECT_TRUE(gp::obs::audit::thread_counts().empty());

  gp::obs::audit::set_enabled(was);
  gp::obs::Registry::reset_all();
  registry.set_enabled(metrics_were_enabled);
}

TEST(AuditTest, ViolationDropsAMarkerIntoTheRecorderRing) {
  const bool rec_was = ConvergenceRecorder::enabled();
  const bool audit_was = gp::obs::audit::enabled();
  ConvergenceRecorder::set_enabled(true);
  gp::obs::audit::set_enabled(true);
  gp::obs::audit::reset_thread_counts();
  ConvergenceRecorder::local().clear();

  gp::obs::audit::check("test_marker", false, 9.0, 1.0);
  const auto tail = ConvergenceRecorder::local().tail();
  ASSERT_FALSE(tail.empty());
  EXPECT_STREQ(tail.back().stream, "test_marker");
  EXPECT_EQ(tail.back().a, 9.0);
  EXPECT_EQ(tail.back().b, 1.0);

  ConvergenceRecorder::local().clear();
  gp::obs::audit::reset_thread_counts();
  ConvergenceRecorder::set_enabled(rec_was);
  gp::obs::audit::set_enabled(audit_was);
}

TEST(AuditTest, CleanSimulationTriggersNoViolations) {
  // ablation_small under the default MPC with audits on: the engine's cost
  // identity, capacity conservation, and the solver's primal feasibility
  // checks must all hold on a healthy run.
  const bool was = gp::obs::audit::enabled();
  gp::obs::audit::set_enabled(true);
  gp::obs::audit::reset_thread_counts();

  gp::scenario::ScenarioSpec spec = gp::scenario::preset("ablation_small");
  spec.sim.periods = 8;
  const auto bundle = gp::scenario::build(spec);
  auto policy = gp::scenario::make_policy(bundle, spec, {});
  auto engine = gp::scenario::make_engine(bundle, spec);
  const auto summary = engine.run(policy.policy());

  EXPECT_EQ(summary.unsolved_periods, 0);
  EXPECT_EQ(gp::obs::audit::thread_violations(), 0)
      << "violations: " << gp::obs::audit::thread_counts().size();
  gp::obs::audit::set_enabled(was);
}

// ------------------------------------------------------------ serialization

TEST(SerializeTest, ScenarioSpecRoundTripsBitForBit) {
  gp::scenario::ScenarioSpec spec = gp::scenario::preset("flash_crowd");
  spec.rate_per_capita = 1.37e-5;             // not representable exactly
  spec.sim.price_noise_std = 0.1 + 0.2;       // 0.30000000000000004
  spec.sim.seed = 0xdeadbeefcafe1234ULL;
  const std::string json = gp::scenario::to_json(spec);
  const gp::scenario::ScenarioSpec parsed = gp::scenario::scenario_from_json(json);
  EXPECT_EQ(gp::scenario::to_json(parsed), json);  // bit-for-bit
  EXPECT_EQ(parsed.name, spec.name);
  EXPECT_EQ(parsed.sim.seed, spec.sim.seed);
  EXPECT_EQ(parsed.rate_per_capita, spec.rate_per_capita);  // exact doubles
  EXPECT_EQ(parsed.sim.price_noise_std, spec.sim.price_noise_std);
  ASSERT_EQ(parsed.flash_crowds.size(), spec.flash_crowds.size());
  EXPECT_EQ(parsed.flash_crowds[0].multiplier, spec.flash_crowds[0].multiplier);
}

TEST(SerializeTest, PolicySpecRoundTripsBitForBit) {
  gp::scenario::PolicySpec policy;
  policy.name = "mpc \"quoted\"";
  policy.horizon = 7;
  policy.demand_predictor.kind = "seasonal_ar";
  policy.demand_predictor.order = 3;
  policy.soft_demand_penalty = 1e6;
  policy.integerized = true;
  const std::string json = gp::scenario::to_json(policy);
  const gp::scenario::PolicySpec parsed = gp::scenario::policy_from_json(json);
  EXPECT_EQ(gp::scenario::to_json(parsed), json);
  EXPECT_EQ(parsed.name, policy.name);  // escaping survived
  EXPECT_EQ(parsed.demand_predictor.kind, "seasonal_ar");
  EXPECT_TRUE(parsed.integerized);
}

TEST(SerializeTest, SpecHashIsStableAndSensitive) {
  const gp::scenario::ScenarioSpec a = gp::scenario::preset("ablation_small");
  gp::scenario::ScenarioSpec b = a;
  EXPECT_EQ(gp::scenario::spec_hash(a), gp::scenario::spec_hash(b));
  EXPECT_EQ(gp::scenario::spec_hash(a).size(), 16u);  // 64-bit hex
  b.sim.seed += 1;
  EXPECT_NE(gp::scenario::spec_hash(a), gp::scenario::spec_hash(b));
  // Known-answer: FNV-1a 64 of the empty string is the offset basis.
  EXPECT_EQ(gp::scenario::fnv1a_hex(""), "cbf29ce484222325");
}

TEST(SerializeTest, ReplayBundleRoundTripsThroughDisk) {
  gp::scenario::ReplayBundle bundle;
  bundle.manifest = gp::obs::RunManifest::capture("test");
  bundle.manifest.seeds = {42};
  bundle.manifest.spec_hash = "0123456789abcdef";
  bundle.manifest.trace_paths = {"builtin:demo"};
  // A quoted/backslashed env pair exercises escaping through the round trip.
  bundle.manifest.env.emplace_back("GEOPLACE_FAKE", "a\"b\\c");
  bundle.scenario = gp::scenario::preset("trace_driven");
  bundle.policy.name = "mpc";
  bundle.seed = 42;
  bundle.audits_enabled = true;
  bundle.unsolved_periods = 2;
  bundle.failed_periods = {3, 5};
  bundle.audit_violations = {{"capacity_conservation", 1}};
  bundle.records.push_back({"admm.residual", 17, 0.5, 0.25, 8.0});

  const std::string json = gp::scenario::to_json(bundle);
  const gp::scenario::ReplayBundle parsed = gp::scenario::bundle_from_json(json);
  EXPECT_EQ(gp::scenario::to_json(parsed), json);
  EXPECT_EQ(parsed.failed_periods, bundle.failed_periods);
  EXPECT_EQ(parsed.audit_violations, bundle.audit_violations);
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].stream, "admm.residual");
  EXPECT_EQ(parsed.records[0].c, 8.0);
  EXPECT_EQ(parsed.manifest.trace_paths, bundle.manifest.trace_paths);
  // SIMD provenance (satellite of the vector-kernel PR): capture() records
  // the dispatched tier, and both it and the env map survive the round trip.
  EXPECT_EQ(bundle.manifest.simd,
            gp::linalg::simd::tier_name(gp::linalg::simd::active_tier()));
  EXPECT_EQ(parsed.manifest.simd, bundle.manifest.simd);
  EXPECT_EQ(parsed.manifest.env, bundle.manifest.env);

  const auto path = unique_temp_path("gp_test_bundle", ".json");
  gp::scenario::write_bundle(bundle, path.string());
  const gp::scenario::ReplayBundle reread = gp::scenario::read_bundle(path.string());
  EXPECT_EQ(gp::scenario::to_json(reread), json);
  std::filesystem::remove(path);

  EXPECT_THROW(gp::scenario::bundle_from_json("{\"type\":\"other\"}"), std::exception);
  EXPECT_THROW(gp::scenario::read_bundle("/nonexistent/bundle.json"), std::exception);
}

// ------------------------------------------------------------- trace-driven

TEST(TraceDrivenTest, FromTraceReplaysRowsWithWrapAndClamp) {
  const std::vector<std::vector<double>> rates = {{10.0, 20.0}, {30.0, 40.0}};
  const auto wrap = gp::workload::DemandModel::from_trace(rates, 1.0, 0.0, true);
  EXPECT_TRUE(wrap.trace_backed());
  EXPECT_EQ(wrap.mean_rate(0, 0.0), 10.0);
  EXPECT_EQ(wrap.mean_rate(1, 1.5), 40.0);   // second row
  EXPECT_EQ(wrap.mean_rate(0, 2.0), 10.0);   // wraps to row 0
  EXPECT_EQ(wrap.mean_rate(0, 5.0), 30.0);   // 5 mod 2 == 1
  const auto clamp = gp::workload::DemandModel::from_trace(rates, 1.0, 0.0, false);
  EXPECT_EQ(clamp.mean_rate(0, 99.0), 30.0);  // clamps to the last row
  EXPECT_EQ(clamp.mean_rate(1, -5.0), 20.0);  // clamps to the first row

  EXPECT_THROW(gp::workload::DemandModel::from_trace({}, 1.0), std::exception);
  EXPECT_THROW(gp::workload::DemandModel::from_trace({{1.0}, {1.0, 2.0}}, 1.0),
               std::exception);
}

TEST(TraceDrivenTest, BuiltinDemoTraceLoadsAndBuilds) {
  const gp::workload::Trace trace =
      gp::scenario::load_spec_trace(gp::scenario::kBuiltinDemoTrace);
  EXPECT_EQ(trace.periods(), 8u);
  EXPECT_EQ(trace.width(), 4u);
  EXPECT_EQ(trace.values[0][0], 220.0);

  EXPECT_THROW(gp::scenario::load_spec_trace("/nonexistent/trace.csv"), std::exception);
}

TEST(TraceDrivenTest, PresetBuildsAndRunsFromTheTrace) {
  const gp::scenario::ScenarioSpec spec = gp::scenario::preset("trace_driven");
  EXPECT_EQ(spec.demand_trace_csv, gp::scenario::kBuiltinDemoTrace);
  const auto bundle = gp::scenario::build(spec);
  EXPECT_TRUE(bundle.demand.trace_backed());
  // Demand at period k must equal the trace row (period_hours = 0.5,
  // utc_start_hour = 0): row 3 of the demo trace is 420,300,180,120.
  const double hour = spec.sim.utc_start_hour + 3 * spec.sim.period_hours;
  EXPECT_EQ(bundle.demand.mean_rate(0, hour), 420.0);
  EXPECT_EQ(bundle.demand.mean_rate(3, hour), 120.0);
  // Two trace cycles: period 11 (hour 5.5) replays row 3 again.
  EXPECT_EQ(bundle.demand.mean_rate(0, hour + 4.0), 420.0);

  auto policy = gp::scenario::make_policy(bundle, spec, {});
  auto engine = gp::scenario::make_engine(bundle, spec);
  const auto summary = engine.run(policy.policy());
  EXPECT_EQ(summary.unsolved_periods, 0);
  EXPECT_GT(summary.total_cost, 0.0);
}

TEST(TraceDrivenTest, PriceTraceReplays) {
  const std::vector<gp::topology::DataCenterSite> sites(2);
  const std::vector<std::vector<double>> prices = {{0.05, 0.07}, {0.06, 0.08}};
  const auto model = gp::workload::ServerPriceModel::from_trace(
      sites, gp::workload::VmType::kSmall, prices, 1.0, 0.0, true);
  EXPECT_TRUE(model.trace_backed());
  EXPECT_EQ(model.server_price(0, 0.0), 0.05);
  EXPECT_EQ(model.server_price(1, 1.0), 0.08);
  EXPECT_EQ(model.server_price(0, 2.0), 0.05);  // wrap
  EXPECT_THROW(gp::workload::ServerPriceModel::from_trace(
                   sites, gp::workload::VmType::kSmall, {{0.05}}, 1.0),
               std::exception);
}

// -------------------------------------------------------------------- sweep

TEST(SweepFlightRecorderTest, ManifestHeadsTheJsonlAndBodyIsThreadInvariant) {
  gp::scenario::SweepGrid grid;
  gp::scenario::ScenarioSpec spec = gp::scenario::preset("ablation_small");
  spec.sim.periods = 4;
  grid.scenarios = {spec};
  grid.policies = {gp::scenario::PolicySpec{}};
  grid.num_seeds = 4;
  grid.base_seed = 3;

  auto sweep_at = [&grid](std::size_t threads) {
    gp::scenario::SweepOptions options;
    options.max_threads = threads;
    return gp::scenario::SweepRunner(grid, options).run();
  };
  const auto result1 = sweep_at(1);
  const auto result2 = sweep_at(2);

  EXPECT_EQ(result1.manifest.tool, "sweep");
  EXPECT_EQ(result1.manifest.seeds, std::vector<std::uint64_t>{3});
  EXPECT_EQ(result1.manifest.spec_hash, result2.manifest.spec_hash);

  std::ostringstream jsonl1, jsonl2;
  result1.write_jsonl(jsonl1);
  result2.write_jsonl(jsonl2);
  EXPECT_TRUE(gp::obs::is_manifest_line(jsonl1.str()));
  EXPECT_EQ(gp::obs::strip_manifest_lines(jsonl1.str()),
            gp::obs::strip_manifest_lines(jsonl2.str()));
}

TEST(SweepFlightRecorderTest, TraceScenarioRecordsItsPathsInTheManifest) {
  gp::scenario::SweepGrid grid;
  gp::scenario::ScenarioSpec spec = gp::scenario::preset("trace_driven");
  spec.sim.periods = 4;
  grid.scenarios = {spec};
  grid.policies = {gp::scenario::PolicySpec{}};
  const auto result = gp::scenario::SweepRunner(grid, {}).run();
  ASSERT_EQ(result.manifest.trace_paths.size(), 1u);
  EXPECT_EQ(result.manifest.trace_paths[0], gp::scenario::kBuiltinDemoTrace);
}

TEST(SweepFlightRecorderTest, FailedCellWritesAReplayBundle) {
  // Capacity far below demand: every period is infeasible. Initial
  // provisioning must be off (it throws on an infeasible environment).
  gp::scenario::ScenarioSpec spec = gp::scenario::preset("ablation_small");
  spec.name = "broken";
  spec.capacity = 0.5;
  spec.sim.periods = 3;
  spec.sim.provision_initial = false;

  gp::scenario::SweepGrid grid;
  grid.scenarios = {spec};
  grid.policies = {gp::scenario::PolicySpec{}};
  grid.base_seed = 5;

  const auto dir = unique_temp_path("gp_test_failures");
  std::filesystem::remove_all(dir);
  gp::scenario::SweepOptions options;
  options.failures_dir = dir.string();
  const auto result = gp::scenario::SweepRunner(grid, options).run();

  EXPECT_EQ(result.failure_bundles, 1u);
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_EQ(result.runs[0].summary.unsolved_periods, 3);
  EXPECT_EQ(result.runs[0].failed_periods, (std::vector<int>{0, 1, 2}));

  std::string bundle_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    bundle_path = entry.path().string();
  }
  ASSERT_FALSE(bundle_path.empty());
  EXPECT_NE(bundle_path.find("broken_mpc_seed"), std::string::npos);
  EXPECT_NE(bundle_path.find(".replay.json"), std::string::npos);
  const auto bundle = gp::scenario::read_bundle(bundle_path);
  EXPECT_EQ(bundle.scenario.name, "broken");
  EXPECT_EQ(bundle.scenario.sim.seed, result.runs[0].seed);  // resolved seed
  EXPECT_EQ(bundle.unsolved_periods, 3);
  EXPECT_EQ(bundle.failed_periods, (std::vector<int>{0, 1, 2}));
  std::filesystem::remove_all(dir);
}

TEST(SweepFlightRecorderTest, HealthySweepWritesNoBundles) {
  gp::scenario::ScenarioSpec spec = gp::scenario::preset("ablation_small");
  spec.sim.periods = 3;
  gp::scenario::SweepGrid grid;
  grid.scenarios = {spec};
  grid.policies = {gp::scenario::PolicySpec{}};

  const auto dir = unique_temp_path("gp_test_no_failures");
  std::filesystem::remove_all(dir);
  gp::scenario::SweepOptions options;
  options.failures_dir = dir.string();
  const auto result = gp::scenario::SweepRunner(grid, options).run();
  EXPECT_EQ(result.failure_bundles, 0u);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(SweepFlightRecorderTest, CsvSidecarCarriesTheManifest) {
  gp::scenario::ScenarioSpec spec = gp::scenario::preset("ablation_small");
  spec.sim.periods = 3;
  gp::scenario::SweepGrid grid;
  grid.scenarios = {spec};
  grid.policies = {gp::scenario::PolicySpec{}};
  const auto result = gp::scenario::SweepRunner(grid, {}).run();

  const auto csv_path = unique_temp_path("gp_test_sweep", ".csv");
  result.write_csv_file(csv_path.string());
  EXPECT_TRUE(std::filesystem::exists(csv_path));
  const auto sidecar = csv_path.string() + ".manifest.json";
  ASSERT_TRUE(std::filesystem::exists(sidecar));
  std::ifstream in(sidecar);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"tool\":\"sweep\""), std::string::npos);
  EXPECT_NE(buffer.str().find("\"git_sha\""), std::string::npos);
  std::filesystem::remove(csv_path);
  std::filesystem::remove(sidecar);
}

}  // namespace
