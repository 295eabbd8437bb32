// Property tests for the continental-scale machinery: pruned PairIndex
// candidate selection against a brute-force scan (with and without per-pair
// latency overrides), pruned PairIndex consistency, and the window solver's
// ADMM path against the hand-written dense program.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dspp/assignment.hpp"
#include "dspp/window_program.hpp"
#include "dspp/window_solver.hpp"
#include "scenario/policy.hpp"
#include "scenario/registry.hpp"
#include "scenario/serialize.hpp"
#include "scenario/spec.hpp"
#include "topology/continental.hpp"
#include "pair_lookup.hpp"

namespace gp {
namespace {

using linalg::Vector;
using test_util::find_pair;

// ------------------------------------------------------- candidate selection

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

/// Brute-force reference selection: the k feasible DCs nearest to v by
/// (d_lv, l), reported ascending by id.
std::vector<std::size_t> brute_force_candidates(const dspp::DsppModel& model,
                                                std::size_t v, std::size_t k) {
  std::vector<std::pair<double, std::size_t>> scored;
  for (std::size_t l = 0; l < model.num_datacenters(); ++l) {
    if (!std::isfinite(model.sla_coefficient(l, v))) continue;
    scored.emplace_back(model.network.latency_ms(l, v), l);
  }
  std::sort(scored.begin(), scored.end());
  scored.resize(std::min(k, scored.size()));
  std::vector<std::size_t> out;
  for (const auto& entry : scored) out.push_back(entry.second);
  std::sort(out.begin(), out.end());
  return out;
}

/// The data centers PairIndex kept for network v, in its pair order.
std::vector<std::size_t> candidates_of(const dspp::PairIndex& pairs, std::size_t v) {
  std::vector<std::size_t> out;
  for (const std::size_t p : pairs.pairs_of_access_network(v)) {
    out.push_back(pairs.datacenter_of(p));
  }
  return out;
}

TEST(PlacementIndex, MatchesBruteForceSelection) {
  auto model = continental_model(40, 160, 7);
  for (const std::size_t k : {1, 3, 8, 40}) {
    model.candidates_per_an = k;
    const dspp::PairIndex pairs(model);
    for (std::size_t v = 0; v < model.num_access_networks(); ++v) {
      EXPECT_EQ(candidates_of(pairs, v), brute_force_candidates(model, v, k))
          << "k=" << k << " v=" << v;
    }
  }
}

TEST(PairIndex, PrunedKeepsNearestFeasibleUnderLatencyOverrides) {
  auto model = continental_model(30, 90, 11);
  model.candidates_per_an = 4;
  // Every even network's nearest DC gets a bound below its propagation
  // latency, so that pair is infeasible and the selection must reach past it.
  model.max_latency_override_ms.assign(model.num_datacenters(),
                                       std::vector<double>(model.num_access_networks(), 0.0));
  std::vector<std::size_t> nearest(model.num_access_networks());
  for (std::size_t v = 0; v < model.num_access_networks(); ++v) {
    nearest[v] = brute_force_candidates(model, v, 1).front();
    if (v % 2 == 0) model.max_latency_override_ms[nearest[v]][v] = 0.5;
  }
  const dspp::PairIndex pairs(model);
  for (std::size_t v = 0; v < model.num_access_networks(); ++v) {
    const std::vector<std::size_t> kept = candidates_of(pairs, v);
    EXPECT_EQ(kept, brute_force_candidates(model, v, 4)) << v;
    EXPECT_EQ(kept.size(), 4u) << v;
    const bool has_nearest = std::find(kept.begin(), kept.end(), nearest[v]) != kept.end();
    EXPECT_EQ(has_nearest, v % 2 != 0) << v;
  }

  // Network 1 loses every DC: the one feasibility check names it.
  for (auto& row : model.max_latency_override_ms) row[1] = 0.5;
  try {
    const dspp::PairIndex unusable(model);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("access network 1 has no data center"), std::string::npos)
        << message;
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
  std::vector<std::vector<std::size_t>> kept(model.num_access_networks());
  for (std::size_t v = 0; v < kept.size(); ++v) {
    kept[v] = brute_force_candidates(model, v, 4);
    EXPECT_EQ(candidates_of(pairs, v), kept[v]) << v;
  }
  std::size_t id = 0;
  for (std::size_t l = 0; l < model.num_datacenters(); ++l) {
    for (std::size_t v = 0; v < model.num_access_networks(); ++v) {
      if (std::find(kept[v].begin(), kept[v].end(), l) == kept[v].end()) {
        EXPECT_FALSE(find_pair(pairs, l, v).has_value()) << l << "," << v;
        continue;
      }
      // Kept pairs are enumerated l-major and carry their exact a_lv.
      ASSERT_EQ(find_pair(pairs, l, v), id) << l << "," << v;
      EXPECT_EQ(pairs.coefficient(id), model.sla_coefficient(l, v));
      ++id;
    }
  }
  EXPECT_EQ(pairs.num_pairs(), id);
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
