// Property tests for the continental-scale machinery: the GeoKdTree against
// brute-force k-NN, PlacementIndex candidate selection against a full scan,
// incremental update() against a fresh build, pruned PairIndex consistency,
// and the window solver's ADMM path against the hand-written dense program.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dspp/assignment.hpp"
#include "dspp/placement_index.hpp"
#include "dspp/window_program.hpp"
#include "dspp/window_solver.hpp"
#include "scenario/policy.hpp"
#include "scenario/registry.hpp"
#include "scenario/serialize.hpp"
#include "scenario/spec.hpp"
#include "topology/continental.hpp"
#include "topology/geo_index.hpp"

namespace gp {
namespace {

using linalg::Vector;

// ----------------------------------------------------------------- GeoKdTree

/// Brute-force reference: same embedding and distance expression as the
/// tree's leaf scan, sorted by (chord^2, id).
std::vector<std::size_t> brute_force_knn(const std::vector<double>& lats,
                                         const std::vector<double>& lons, double qlat,
                                         double qlon, std::size_t k) {
  const auto embed = [](double lat_deg, double lon_deg, double* out) {
    const double to_rad = std::numbers::pi / 180.0;
    const double lat = lat_deg * to_rad;
    const double lon = lon_deg * to_rad;
    out[0] = std::cos(lat) * std::cos(lon);
    out[1] = std::cos(lat) * std::sin(lon);
    out[2] = std::sin(lat);
  };
  double qpt[3];
  embed(qlat, qlon, qpt);
  std::vector<std::pair<double, std::size_t>> scored;
  scored.reserve(lats.size());
  for (std::size_t i = 0; i < lats.size(); ++i) {
    double p[3];
    embed(lats[i], lons[i], p);
    const double dx = p[0] - qpt[0];
    const double dy = p[1] - qpt[1];
    const double dz = p[2] - qpt[2];
    scored.emplace_back(dx * dx + dy * dy + dz * dz, i);
  }
  std::sort(scored.begin(), scored.end());
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < std::min(k, scored.size()); ++i) {
    out.push_back(scored[i].second);
  }
  return out;
}

class GeoKdTreeProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GeoKdTreeProperty, MatchesBruteForceKnn) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  std::vector<double> lats(n), lons(n);
  for (std::size_t i = 0; i < n; ++i) {
    lats[i] = rng.uniform(25.0, 49.0);
    lons[i] = rng.uniform(-124.0, -67.0);
  }
  const topology::GeoKdTree tree = topology::GeoKdTree::build(lats, lons);
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{8}, n}) {
    for (int q = 0; q < 16; ++q) {
      const double qlat = rng.uniform(20.0, 55.0);
      const double qlon = rng.uniform(-130.0, -60.0);
      EXPECT_EQ(tree.nearest(qlat, qlon, k), brute_force_knn(lats, lons, qlat, qlon, k))
          << "n=" << n << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeoKdTreeProperty,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 17, 64, 257, 2048));

TEST(GeoKdTree, DuplicatePointsTieBreakTowardSmallerId) {
  // Five copies of the same point: the k nearest must be ids 0..k-1.
  const std::vector<double> lats(5, 40.0);
  const std::vector<double> lons(5, -100.0);
  const auto tree = topology::GeoKdTree::build(lats, lons);
  EXPECT_EQ(tree.nearest(40.0, -100.0, 3), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(tree.nearest(10.0, -80.0, 2), (std::vector<std::size_t>{0, 1}));
}

// ------------------------------------------------------------ PlacementIndex

dspp::DsppModel continental_model(std::size_t num_l, std::size_t num_v,
                                  std::uint64_t seed, double max_latency_ms = 45.0) {
  topology::ContinentalSpec spec;
  spec.num_datacenters = num_l;
  spec.num_access_networks = num_v;
  spec.seed = seed;
  const topology::ContinentalTopology topo = topology::generate_continental(spec);
  dspp::DsppModel model;
  model.network = topology::NetworkModel::from_geography(topo.sites, topo.cities);
  model.sla.max_latency_ms = max_latency_ms;
  model.reconfig_cost.assign(num_l, 0.01);
  model.capacity.assign(num_l, 2000.0);
  return model;
}

/// Brute-force reference selection: the k feasible DCs minimizing
/// d_lv + bias_l (ties toward the smaller l), reported ascending by id.
std::vector<std::uint32_t> brute_force_candidates(const dspp::DsppModel& model,
                                                  std::size_t v, std::size_t k,
                                                  const Vector& bias) {
  std::vector<std::pair<std::pair<double, std::size_t>, std::uint32_t>> scored;
  for (std::size_t l = 0; l < model.num_datacenters(); ++l) {
    if (!std::isfinite(model.sla_coefficient(l, v))) continue;
    const double latency = model.network.latency_ms(l, v);
    const double shift = bias.empty() ? 0.0 : bias[l];
    scored.push_back({{latency + shift, l}, static_cast<std::uint32_t>(l)});
  }
  std::sort(scored.begin(), scored.end());
  scored.resize(std::min(k, scored.size()));
  std::vector<std::uint32_t> out;
  for (const auto& entry : scored) out.push_back(entry.second);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PlacementIndex, MatchesBruteForceSelection) {
  const auto model = continental_model(40, 160, 7);
  for (const std::size_t k : {1, 3, 8, 40}) {
    const auto index = dspp::PlacementIndex::build(model, k);
    for (std::size_t v = 0; v < model.num_access_networks(); ++v) {
      EXPECT_EQ(index.candidates_of(v), brute_force_candidates(model, v, k, {}))
          << "k=" << k << " v=" << v;
    }
  }
}

TEST(PlacementIndex, MatchesBruteForceWithBias) {
  const auto model = continental_model(32, 96, 21);
  Rng rng(5);
  Vector bias(model.num_datacenters());
  for (double& b : bias) b = rng.uniform(-5.0, 5.0);
  const auto index = dspp::PlacementIndex::build(model, 4, bias);
  for (std::size_t v = 0; v < model.num_access_networks(); ++v) {
    EXPECT_EQ(index.candidates_of(v), brute_force_candidates(model, v, 4, bias)) << v;
  }
}

TEST(PlacementIndex, IncrementalUpdateEqualsFreshBuild) {
  const auto model = continental_model(48, 200, 13);
  auto incremental = dspp::PlacementIndex::build(model, 6);
  Rng rng(99);
  for (int round = 0; round < 5; ++round) {
    Vector bias(model.num_datacenters());
    for (double& b : bias) b = rng.uniform(-3.0, 3.0);
    incremental.update(bias);
    const auto fresh = dspp::PlacementIndex::build(model, 6, bias);
    for (std::size_t v = 0; v < model.num_access_networks(); ++v) {
      ASSERT_EQ(incremental.candidates_of(v), fresh.candidates_of(v))
          << "round=" << round << " v=" << v;
    }
  }
}

TEST(PlacementIndex, TreePathMatchesScanPathWithoutGeometry) {
  // Strip the geometry: the same latency matrix through a synthetic
  // NetworkModel must select identical candidates via the O(L) scan path.
  const auto geo_model = continental_model(30, 90, 3);
  dspp::DsppModel flat = geo_model;
  std::vector<std::vector<double>> matrix(geo_model.num_datacenters());
  for (std::size_t l = 0; l < geo_model.num_datacenters(); ++l) {
    matrix[l].resize(geo_model.num_access_networks());
    for (std::size_t v = 0; v < geo_model.num_access_networks(); ++v) {
      matrix[l][v] = geo_model.network.latency_ms(l, v);
    }
  }
  std::vector<std::string> dc_names, an_names;
  for (std::size_t l = 0; l < geo_model.num_datacenters(); ++l) {
    dc_names.push_back("dc" + std::to_string(l));
  }
  for (std::size_t v = 0; v < geo_model.num_access_networks(); ++v) {
    an_names.push_back("an" + std::to_string(v));
  }
  flat.network = topology::NetworkModel(std::move(dc_names), std::move(an_names), matrix);
  ASSERT_FALSE(flat.network.has_geometry());
  const auto tree_index = dspp::PlacementIndex::build(geo_model, 5);
  const auto scan_index = dspp::PlacementIndex::build(flat, 5);
  for (std::size_t v = 0; v < geo_model.num_access_networks(); ++v) {
    ASSERT_EQ(tree_index.candidates_of(v), scan_index.candidates_of(v)) << v;
  }
}

TEST(PairIndex, PrunedWithFullKIsBitIdenticalToDense) {
  auto model = continental_model(24, 80, 17);
  const dspp::PairIndex dense(model);
  model.candidates_per_an = model.num_datacenters();  // k >= L: dense contract
  const dspp::PairIndex pruned(model);
  ASSERT_EQ(pruned.num_pairs(), dense.num_pairs());
  for (std::size_t p = 0; p < dense.num_pairs(); ++p) {
    ASSERT_EQ(pruned.datacenter_of(p), dense.datacenter_of(p));
    ASSERT_EQ(pruned.access_network_of(p), dense.access_network_of(p));
    ASSERT_EQ(pruned.coefficient(p), dense.coefficient(p));  // bitwise
  }
}

TEST(PairIndex, PrunedKeepsOnlyPlacementCandidates) {
  auto model = continental_model(36, 120, 29);
  model.candidates_per_an = 4;
  const dspp::PairIndex pairs(model);
  const auto index = dspp::PlacementIndex::build(model, 4);
  for (std::size_t v = 0; v < model.num_access_networks(); ++v) {
    const auto& candidates = index.candidates_of(v);
    const auto& pair_list = pairs.pairs_of_access_network(v);
    ASSERT_EQ(pair_list.size(), candidates.size()) << v;
    for (std::size_t i = 0; i < pair_list.size(); ++i) {
      EXPECT_EQ(pairs.datacenter_of(pair_list[i]), candidates[i]) << v;
    }
  }
}

// ------------------------------------------------------------ window solver

dspp::WindowInputs random_window_inputs(const dspp::DsppModel& model,
                                        const dspp::PairIndex& pairs, std::size_t horizon,
                                        std::uint64_t seed) {
  Rng rng(seed);
  dspp::WindowInputs inputs;
  inputs.initial_state.assign(pairs.num_pairs(), 0.0);
  for (std::size_t t = 0; t < horizon; ++t) {
    Vector demand(model.num_access_networks());
    for (double& d : demand) d = rng.uniform(5.0, 60.0);
    inputs.demand.push_back(std::move(demand));
    Vector price(model.num_datacenters());
    for (double& p : price) p = rng.uniform(0.05, 0.3);
    inputs.price.push_back(std::move(price));
  }
  return inputs;
}

TEST(BlockWindowSolver, SingleBlockIsBitIdenticalToDenseProgram) {
  auto model = continental_model(12, 30, 41);
  model.candidates_per_an = 4;
  const dspp::PairIndex pairs(model);
  // The exact sequence MpcController historically ran. A pair with c = 0
  // keeps every window on the ADMM path (a window with slack capacity is
  // otherwise solved network by network), which this test pins bitwise.
  model.reconfig_cost[pairs.datacenter_of(0)] = 0.0;

  dspp::WindowSolverSettings settings;
  settings.solver.auto_warm_start = true;
  dspp::WindowSolver window_solver(model, pairs, settings);

  qp::AdmmSettings solver_settings;
  solver_settings.auto_warm_start = true;
  solver_settings.cache_structure = true;
  qp::AdmmSolver reference_solver(solver_settings);
  std::optional<dspp::WindowProgram> program;

  for (std::uint64_t step = 0; step < 3; ++step) {
    dspp::WindowInputs inputs = random_window_inputs(model, pairs, 4, 100 + step);
    inputs.soft_demand_penalty = 50.0;
    const dspp::WindowSolution solution = window_solver.solve(inputs);
    if (program) {
      program->update(model, pairs, inputs);
    } else {
      program.emplace(model, pairs, std::move(inputs));
    }
    const dspp::WindowSolution exact = program->solve(reference_solver);
    ASSERT_EQ(solution.status, exact.status);
    ASSERT_EQ(solution.solver_iterations, exact.solver_iterations);
    for (std::size_t t = 0; t < 4; ++t) {
      ASSERT_EQ(solution.x[t], exact.x[t]) << "step=" << step << " t=" << t;  // bitwise
      ASSERT_EQ(solution.u[t], exact.u[t]) << "step=" << step << " t=" << t;
    }
    EXPECT_GT(solution.solver_iterations, 0);
  }
  EXPECT_EQ(window_solver.path_stats().fallback_zero_reconfig, 3);
  EXPECT_EQ(window_solver.path_stats().separable, 0);
}

// ------------------------------------------------- scenario layer validation

TEST(ScenarioScale, UsCitiesGeneratorRejectsMoreThan24Cities) {
  scenario::ScenarioSpec spec;
  spec.num_cities = 25;
  try {
    scenario::build(spec);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("us_cities"), std::string::npos) << message;
    EXPECT_NE(message.find("25"), std::string::npos) << message;
    EXPECT_NE(message.find("continental"), std::string::npos) << message;
  }
}

TEST(ScenarioScale, UsCitiesGeneratorRejectsMoreThan5Dcs) {
  scenario::ScenarioSpec spec;
  spec.num_dcs = 6;
  try {
    scenario::build(spec);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("us_cities"), std::string::npos) << message;
    EXPECT_NE(message.find("continental"), std::string::npos) << message;
  }
}

TEST(ScenarioScale, ContinentalSpecBuildsBeyondTheTables) {
  scenario::ScenarioSpec spec = scenario::preset("scale_smoke");
  ASSERT_EQ(spec.topology, "continental");
  const scenario::ScenarioBundle bundle = scenario::build(spec);
  EXPECT_EQ(bundle.model.num_datacenters(), spec.num_dcs);
  EXPECT_EQ(bundle.model.num_access_networks(), spec.num_cities);
  EXPECT_TRUE(bundle.model.network.has_geometry());
  // The pruning knob propagates into the model, so every PairIndex built
  // from this bundle is sparse.
  EXPECT_EQ(bundle.model.candidates_per_an, spec.candidates_per_an);
  const dspp::PairIndex pairs(bundle.model);
  EXPECT_LE(pairs.num_pairs(), spec.num_cities * spec.candidates_per_an);
  EXPECT_LT(pairs.num_pairs(), spec.num_dcs * spec.num_cities);
}

TEST(ScenarioScale, ContinentalBuildIsDeterministic) {
  const scenario::ScenarioSpec spec = scenario::preset("scale_smoke");
  const auto a = scenario::build(spec);
  const auto b = scenario::build(spec);
  ASSERT_EQ(a.sites.size(), b.sites.size());
  for (std::size_t l = 0; l < a.sites.size(); ++l) {
    EXPECT_EQ(a.sites[l].name, b.sites[l].name);
    EXPECT_EQ(a.sites[l].location.latitude, b.sites[l].location.latitude);
    EXPECT_EQ(a.sites[l].location.longitude, b.sites[l].location.longitude);
  }
}

TEST(ScenarioScale, SerializationRoundTripsTopologyFields) {
  scenario::ScenarioSpec spec = scenario::preset("scale_continental");
  const scenario::ScenarioSpec parsed = scenario::scenario_from_json(scenario::to_json(spec));
  EXPECT_EQ(parsed.topology, "continental");
  EXPECT_EQ(parsed.num_dcs, spec.num_dcs);
  EXPECT_EQ(parsed.num_cities, spec.num_cities);
  EXPECT_EQ(parsed.topology_seed, spec.topology_seed);
  EXPECT_EQ(parsed.candidates_per_an, spec.candidates_per_an);

  scenario::PolicySpec policy;
  policy.qp_block_lanes = 2;
  const scenario::PolicySpec parsed_policy =
      scenario::policy_from_json(scenario::to_json(policy));
  EXPECT_EQ(parsed_policy.qp_block_lanes, 2u);
}

TEST(ScenarioScale, PolicyWithQpBlocksIsRejected) {
  // A replay bundle recorded while per-DC block decomposition existed still
  // parses, but building its controller must fail and say why.
  std::string json = scenario::to_json(scenario::PolicySpec{});
  const std::string exact_key = "\"qp_blocks\":1,";
  const std::size_t at = json.find(exact_key);
  ASSERT_NE(at, std::string::npos) << json;
  json.replace(at, exact_key.size(), "\"qp_blocks\":4,");
  const scenario::PolicySpec policy = scenario::policy_from_json(json);
  ASSERT_EQ(policy.qp_blocks, 4u);

  const scenario::ScenarioSpec spec = scenario::preset("paper_full");
  const scenario::ScenarioBundle bundle = scenario::build(spec);
  try {
    scenario::make_policy(bundle, spec, policy);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("block consensus was removed"), std::string::npos) << message;
  }
}

TEST(ScenarioScale, LegacyJsonWithoutTopologyFieldsStillParses) {
  // A pre-continental document: no topology/seed/candidates keys.
  scenario::ScenarioSpec reference;  // defaults
  std::string json = scenario::to_json(reference);
  // Strip the new keys to emulate an old document.
  for (const std::string key :
       {"\"topology\":\"us_cities\",", "\"topology_seed\":42,",
        "\"candidates_per_an\":0,"}) {
    const std::size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    json.erase(at, key.size());
  }
  const scenario::ScenarioSpec parsed = scenario::scenario_from_json(json);
  EXPECT_EQ(parsed.topology, "us_cities");
  EXPECT_EQ(parsed.topology_seed, 42u);
  EXPECT_EQ(parsed.candidates_per_an, 0u);
}

}  // namespace
}  // namespace gp
