// Scenario layer: presets reproduce the legacy bench assembly bit-for-bit,
// SweepRunner is deterministic at any thread count, and the exported
// artifacts (JSONL / CSV) are well-formed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/manifest.hpp"
#include "obs/timeline.hpp"
#include "scenario/policy.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"
#include "sim/engine.hpp"
#include "topology/geo.hpp"
#include "workload/demand.hpp"
#include "workload/price.hpp"

#include "temp_path.hpp"

namespace {

using namespace gp;

using gp::test_util::unique_temp_path;

TEST(ScenarioRegistry, KnowsThePaperPresets) {
  const auto names = scenario::preset_names();
  EXPECT_GE(names.size(), 10u);
  for (const char* name : {"paper_full", "fig04", "fig09_volatile", "ablation_small"}) {
    EXPECT_TRUE(scenario::has_preset(name)) << name;
    EXPECT_EQ(scenario::preset(name).name, name);
  }
  EXPECT_FALSE(scenario::has_preset("no_such_preset"));
  EXPECT_THROW(scenario::preset("no_such_preset"), PreconditionError);
}

// The exact environment the figure benches assembled by hand before the
// scenario layer existed (bench/scenarios.hpp::paper_scenario, 2 DCs x 4
// cities). build(section7_spec(...)) must reproduce it bit-for-bit — the
// figures in the paper replication depend on it.
TEST(ScenarioBuild, MatchesLegacyBenchAssemblyBitForBit) {
  const std::size_t num_dcs = 2, num_cities = 4;
  const double rate_per_capita = 2e-5;

  // Legacy assembly, inlined verbatim.
  auto sites = topology::default_datacenter_sites(num_dcs);
  const auto& all = topology::us_cities24();
  std::vector<topology::City> cities(all.begin(),
                                     all.begin() + static_cast<std::ptrdiff_t>(num_cities));
  dspp::DsppModel legacy_model;
  legacy_model.network = topology::NetworkModel::from_geography(sites, cities);
  legacy_model.sla.mu = 100.0;
  legacy_model.sla.max_latency_ms = 32.0;
  legacy_model.sla.reservation_ratio = 1.1;
  legacy_model.reconfig_cost.assign(num_dcs, 0.002);
  legacy_model.capacity.assign(num_dcs, 2000.0);
  auto legacy_demand = workload::DemandModel::from_cities(cities, rate_per_capita, {});
  workload::ServerPriceModel legacy_prices(sites, workload::VmType::kMedium,
                                           workload::ElectricityPriceModel());

  const auto bundle = scenario::build(scenario::section7_spec(num_dcs, num_cities));

  EXPECT_EQ(bundle.model.sla.mu, legacy_model.sla.mu);
  EXPECT_EQ(bundle.model.sla.max_latency_ms, legacy_model.sla.max_latency_ms);
  EXPECT_EQ(bundle.model.sla.reservation_ratio, legacy_model.sla.reservation_ratio);
  ASSERT_EQ(bundle.model.reconfig_cost, legacy_model.reconfig_cost);
  ASSERT_EQ(bundle.model.capacity, legacy_model.capacity);
  ASSERT_EQ(bundle.model.network.num_datacenters(), num_dcs);
  ASSERT_EQ(bundle.model.network.num_access_networks(), num_cities);
  for (std::size_t l = 0; l < num_dcs; ++l) {
    for (std::size_t v = 0; v < num_cities; ++v) {
      EXPECT_EQ(bundle.model.network.latency_ms(l, v), legacy_model.network.latency_ms(l, v));
    }
  }
  for (double hour : {0.0, 6.5, 13.0, 23.0}) {
    EXPECT_EQ(bundle.demand.mean_rates(hour), legacy_demand.mean_rates(hour));
    EXPECT_EQ(bundle.prices.server_prices(hour), legacy_prices.server_prices(hour));
  }
}

scenario::SweepGrid small_grid() {
  scenario::SweepGrid grid;
  auto spec = scenario::preset("ablation_small");
  spec.sim.periods = 8;  // enough periods to exercise aggregation, still fast
  grid.scenarios = {spec};
  grid.policies = {scenario::PolicySpec{}, [] {
                     scenario::PolicySpec reactive;
                     reactive.kind = "reactive";
                     return reactive;
                   }()};
  grid.num_seeds = 3;
  grid.base_seed = 11;
  return grid;
}

std::string jsonl_at(const scenario::SweepGrid& grid, std::size_t threads) {
  scenario::SweepOptions options;
  options.max_threads = threads;
  std::ostringstream out;
  scenario::SweepRunner(grid, options).run().write_jsonl(out);
  return out.str();
}

TEST(SweepRunner, BitIdenticalAcrossThreadCounts) {
  const auto grid = small_grid();
  EXPECT_EQ(jsonl_at(grid, 1), jsonl_at(grid, 4));
}

TEST(SweepRunner, DerivedSeedsAreStableAndDistinct) {
  EXPECT_EQ(scenario::derive_run_seed(11, 0), scenario::derive_run_seed(11, 0));
  EXPECT_NE(scenario::derive_run_seed(11, 0), scenario::derive_run_seed(11, 1));
  EXPECT_NE(scenario::derive_run_seed(11, 0), scenario::derive_run_seed(12, 0));
}

TEST(SweepRunner, ExplicitSeedsOverrideDerivation) {
  auto grid = small_grid();
  grid.seeds = {42, 43};
  const auto result = scenario::SweepRunner(grid).run();
  ASSERT_EQ(result.runs.size(), grid.policies.size() * grid.seeds.size());
  for (const auto& record : result.runs) {
    EXPECT_EQ(record.seed, grid.seeds[record.seed_index]);
  }
}

TEST(SweepRunner, CellsAggregateTheSeedAxis) {
  const auto grid = small_grid();
  const auto result = scenario::SweepRunner(grid).run();
  ASSERT_EQ(result.runs.size(), 2u * 3u);
  ASSERT_EQ(result.cells.size(), 2u);
  for (std::size_t pi = 0; pi < result.cells.size(); ++pi) {
    const auto& cell = result.cells[pi];
    EXPECT_EQ(cell.runs, 3);
    double mean = 0.0, lo = 1e300, hi = -1e300;
    for (std::size_t ki = 0; ki < 3; ++ki) {
      const double cost = result.runs[pi * 3 + ki].summary.total_cost;
      mean += cost / 3.0;
      lo = std::min(lo, cost);
      hi = std::max(hi, cost);
    }
    EXPECT_NEAR(cell.total_cost.mean, mean, 1e-9 * std::abs(mean));
    EXPECT_EQ(cell.total_cost.min, lo);
    EXPECT_EQ(cell.total_cost.max, hi);
    EXPECT_GE(cell.total_cost.stddev, 0.0);
  }
}

TEST(SweepRunner, ExportsAreWellFormed) {
  const auto grid = small_grid();
  const auto result = scenario::SweepRunner(grid).run();

  std::ostringstream jsonl;
  result.write_jsonl(jsonl);
  ASSERT_TRUE(obs::is_manifest_line(jsonl.str()));  // provenance header first
  std::istringstream lines(obs::strip_manifest_lines(jsonl.str()));
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"scenario\":\"ablation_small\""), std::string::npos);
    EXPECT_NE(line.find("\"total_cost\":"), std::string::npos);
    ++count;
  }
  EXPECT_EQ(count, result.runs.size());

  std::ostringstream csv;
  result.write_csv(csv);
  std::istringstream csv_lines(csv.str());
  std::size_t csv_count = 0;
  while (std::getline(csv_lines, line)) ++csv_count;
  EXPECT_EQ(csv_count, 1 + result.cells.size());  // header + one row per cell
}

TEST(SweepRunner, RejectsEmptyGridAxes) {
  scenario::SweepGrid grid;
  EXPECT_THROW(scenario::SweepRunner(grid).run(), PreconditionError);
}

// Regression: unsolved periods carry NaN latency/compliance; those cells
// must be exported empty, never as "nan" tokens that break CSV consumers.
TEST(SimulationSummaryCsv, UnsolvedPeriodsWriteEmptyCellsNotNaN) {
  sim::SimulationSummary summary;
  sim::PeriodMetrics good;
  good.utc_hour = 0.0;
  good.total_demand = 10.0;
  good.servers_per_dc = linalg::Vector{3.0, 2.0};
  good.total_servers = 5.0;
  good.mean_latency_ms = 12.5;
  sim::PeriodMetrics bad = good;
  bad.utc_hour = 1.0;
  bad.sla_compliance = std::nan("");
  bad.mean_latency_ms = std::nan("");
  bad.solved = false;
  summary.periods = {good, bad};

  std::ostringstream out;
  summary.write_csv(out);
  const std::string text = out.str();
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_NE(text.find(",,"), std::string::npos) << text;  // the blanked cells
  EXPECT_NE(text.find(",0,"), std::string::npos);         // solved column "0"
}

TEST(SweepArtifactToken, SanitizesPathHostileNames) {
  using scenario::sweep_artifact_token;
  // Clean names pass through untouched (stable artifact names for the
  // common case).
  EXPECT_EQ(sweep_artifact_token("ablation_small-v1.2"),
            sweep_artifact_token("ablation_small-v1.2"));
  EXPECT_EQ(sweep_artifact_token("fig04"), "fig04");
  // Hostile characters are replaced AND the token is disambiguated with a
  // digest of the original, so distinct names can never collide.
  const std::string slash = sweep_artifact_token("a/b");
  const std::string underscore = sweep_artifact_token("a_b");
  EXPECT_EQ(slash.find('/'), std::string::npos);
  EXPECT_NE(slash, underscore);
  EXPECT_NE(sweep_artifact_token("a/b"), sweep_artifact_token("a\\b"));
  // Path tokens and empty names cannot escape or vanish.
  EXPECT_NE(sweep_artifact_token("."), ".");
  EXPECT_NE(sweep_artifact_token(".."), "..");
  EXPECT_FALSE(sweep_artifact_token("").empty());
  EXPECT_EQ(sweep_artifact_token("../../etc/passwd").find('/'), std::string::npos);
}

TEST(SweepRunner, TimelineSidecarsLandInsideTheDirectory) {
  // A slash-containing scenario name must produce a sidecar INSIDE
  // timelines_dir (regression: "exp/v2" once escaped into a subdirectory
  // or collided with "exp_v2").
  auto grid = small_grid();
  grid.scenarios[0].name = "exp/v2";
  grid.policies.resize(1);
  grid.num_seeds = 2;

  const auto dir = unique_temp_path("gp_test_timelines");
  std::filesystem::remove_all(dir);
  scenario::SweepOptions options;
  options.timelines_dir = dir.string();

  obs::TimelineWriter::set_enabled(true);
  const auto result = scenario::SweepRunner(grid, options).run();
  obs::TimelineWriter::set_enabled(false);
  obs::TimelineWriter::local().clear();

  std::vector<std::string> sidecars;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_TRUE(entry.is_regular_file());
    sidecars.push_back(entry.path().filename().string());
  }
  ASSERT_EQ(sidecars.size(), result.runs.size());
  for (const auto& name : sidecars) {
    EXPECT_TRUE(name.ends_with(".timeline.jsonl")) << name;
    EXPECT_EQ(name.find('/'), std::string::npos) << name;
  }
  // Every run captured one frame per period, and the sidecar is
  // manifest-headed columnar JSONL.
  for (const auto& record : result.runs) {
    EXPECT_EQ(record.timeline.size(), static_cast<std::size_t>(grid.scenarios[0].sim.periods));
  }
  std::ifstream in(dir / sidecars.front());
  std::string first_line, second_line;
  ASSERT_TRUE(std::getline(in, first_line));
  ASSERT_TRUE(std::getline(in, second_line));
  EXPECT_TRUE(obs::is_manifest_line(first_line)) << first_line;
  EXPECT_NE(second_line.find("\"type\":\"timeline\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(SweepRunner, TimelineRecordingKeepsExportsBitIdentical) {
  // The perf_sweep transparency gate as a fast unit check: arming the
  // timeline (without a sidecar dir) must not change a single digit of the
  // sweep's exports.
  const auto grid = small_grid();
  const std::string off = obs::strip_manifest_lines(jsonl_at(grid, 2));
  obs::TimelineWriter::set_enabled(true);
  const std::string on = obs::strip_manifest_lines(jsonl_at(grid, 2));
  obs::TimelineWriter::set_enabled(false);
  obs::TimelineWriter::local().clear();
  EXPECT_EQ(off, on);
}

TEST(SweepRunner, NoTimelineCaptureWhenDisabledOrNoDir) {
  // Pin the flag: the suite may be running with GEOPLACE_TIMELINE armed
  // (the CI obs-on job does), and this test is about the disabled path.
  const bool was_enabled = obs::TimelineWriter::enabled();
  obs::TimelineWriter::set_enabled(false);

  // timelines_dir without the timeline armed: no capture, no directory.
  auto grid = small_grid();
  grid.policies.resize(1);
  grid.num_seeds = 1;
  const auto dir = unique_temp_path("gp_test_timelines_off");
  std::filesystem::remove_all(dir);
  scenario::SweepOptions options;
  options.timelines_dir = dir.string();
  const auto result = scenario::SweepRunner(grid, options).run();
  for (const auto& record : result.runs) EXPECT_TRUE(record.timeline.empty());
  EXPECT_FALSE(std::filesystem::exists(dir));

  // Timeline armed without a timelines_dir: runs stay lean (no per-record
  // frame copies for a plain sweep).
  obs::TimelineWriter::set_enabled(true);
  const auto result2 = scenario::SweepRunner(grid, {}).run();
  obs::TimelineWriter::set_enabled(was_enabled);
  obs::TimelineWriter::local().clear();
  for (const auto& record : result2.runs) EXPECT_TRUE(record.timeline.empty());
}

TEST(SweepRunner, ProgressLineErasesItselfAndEndsWithACleanLine) {
  const auto grid = small_grid();
  const std::size_t total =
      grid.scenarios.size() * grid.policies.size() * grid.num_seeds;

  scenario::SweepOptions options;
  options.progress = true;
  std::ostringstream captured;
  options.progress_out = &captured;
  const auto result = scenario::SweepRunner(grid, options).run();
  ASSERT_EQ(result.runs.size(), total);

  const std::string out = captured.str();
  ASSERT_FALSE(out.empty());
  // Every print replaces the previous line: CR + erase-to-end-of-line, so a
  // finished sweep leaves no stale partial line behind.
  EXPECT_EQ(out.find("\r\x1b[2K"), 0u);
  // The only newline is the terminating one on the final line.
  ASSERT_EQ(out.back(), '\n');
  EXPECT_EQ(out.find('\n'), out.size() - 1);
  // The final (newline-terminated) print reports the completed sweep.
  std::ostringstream needle;
  needle << "sweep: " << total << "/" << total << " runs";
  EXPECT_NE(out.find(needle.str()), std::string::npos) << out;
  EXPECT_NE(out.find("failures 0"), std::string::npos) << out;
}

TEST(SweepRunner, ProgressOffWritesNothingToTheInjectedStream) {
  if (std::getenv("GEOPLACE_PROGRESS") != nullptr) {
    GTEST_SKIP() << "GEOPLACE_PROGRESS armed in the environment";
  }
  auto grid = small_grid();
  grid.policies.resize(1);
  grid.num_seeds = 1;
  scenario::SweepOptions options;
  options.progress = false;
  std::ostringstream captured;
  options.progress_out = &captured;
  scenario::SweepRunner(grid, options).run();
  EXPECT_TRUE(captured.str().empty());
}

}  // namespace
