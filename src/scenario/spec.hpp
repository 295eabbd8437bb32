// Declarative experiment environments: a ScenarioSpec is the plain-data
// description of one Section VII setup (which of the paper's data-center
// sites, how many of the 24 US-city access networks, demand scale, SLA
// knobs, prices, noise, seed), and build() turns it into the concrete
// model/demand/prices bundle every bench, example and test used to
// hand-assemble from inline helpers.
//
// Specs are value types on purpose: fetch a named preset from the registry
// (scenario/registry.hpp), tweak fields, build. The same spec drives a
// single SimulationEngine run or one axis of a SweepRunner grid
// (scenario/sweep.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dspp/model.hpp"
#include "sim/engine.hpp"
#include "topology/geo.hpp"
#include "workload/demand.hpp"
#include "workload/diurnal.hpp"
#include "workload/price.hpp"

namespace gp::scenario {

/// Plain-data description of one experiment environment (see file comment).
/// Every field has the Section VII default; presets and call sites override
/// what their experiment changes.
struct ScenarioSpec {
  std::string name;                  ///< report label / registry key

  // Topology: under the default "us_cities" generator the first `num_dcs`
  // of the paper's named sites (at most 5) serve the first `num_cities` of
  // the 24 US-city access networks. topology = "continental" switches to the
  // synthetic continental grid (topology/continental.hpp), where both counts
  // are unbounded and `topology_seed` seeds the generator.
  std::string topology = "us_cities";
  std::size_t num_dcs = 4;
  std::size_t num_cities = 24;
  std::uint64_t topology_seed = 42;

  // Candidate pruning (DsppModel::candidates_per_an): > 0 restricts every
  // access network to its k nearest feasible data centers, making the pair
  // index sparse; 0 (or >= num_dcs) keeps the dense all-pairs index.
  std::size_t candidates_per_an = 0;

  // Demand: population-scaled diurnal arrivals, optional flash crowds.
  double rate_per_capita = 2e-5;     ///< requests/s per inhabitant at peak
  workload::DiurnalProfile profile;  ///< (1.0, 1.0) = constant demand
  std::vector<workload::FlashCrowd> flash_crowds;

  // SLA and cost knobs (the dspp::DsppModel fields the experiments vary).
  double mu = 100.0;                 ///< requests/s per server
  double max_latency_ms = 32.0;      ///< end-to-end SLA target
  double reservation_ratio = 1.1;    ///< Section IV-B cushion
  double reconfig_cost = 0.002;      ///< c^l, same at every data center
  double capacity = 2000.0;          ///< servers per data center (the paper's)

  // Prices: regional electricity through the chosen VM flavor.
  workload::VmType vm = workload::VmType::kMedium;

  // Trace-driven workloads (ROADMAP item): a non-empty demand_trace_csv
  // makes build() replay that CSV (one row per sim period, one column per
  // access network, requests/s; column count must equal num_cities) through
  // DemandModel::from_trace instead of the synthetic diurnal generator;
  // price_trace_csv similarly overrides server prices ($/server-hour, one
  // column per data center). The magic path "builtin:demo" resolves to the
  // embedded demo trace (scenario/trace.hpp), so the preset builds without
  // touching the filesystem. Both paths land in the run's RunManifest.
  std::string demand_trace_csv;
  std::string price_trace_csv;
  bool trace_wrap = true;  ///< replay traces cyclically past their end

  /// Simulation-run parameters (periods, noise, seed, initial state).
  sim::SimulationConfig sim;
};

/// The built environment: everything a SimulationEngine (or a game/bench
/// that samples demand and prices directly) needs, plus the geography it
/// came from.
struct ScenarioBundle {
  dspp::DsppModel model;
  workload::DemandModel demand;
  workload::ServerPriceModel prices;
  std::vector<topology::DataCenterSite> sites;
  std::vector<topology::City> cities;
};

/// The legacy `paper_scenario` knobs as a spec: Section VII defaults with
/// the four historically positional parameters. Kept so call sites that
/// migrated from bench/scenarios.hpp read the same.
ScenarioSpec section7_spec(std::size_t num_dcs = 4, std::size_t num_cities = 24,
                           double rate_per_capita = 2e-5,
                           workload::DiurnalProfile profile = workload::DiurnalProfile());

/// Materializes a spec. Deterministic: equal specs build value-identical
/// bundles (the round-trip test pins this against the legacy helper).
ScenarioBundle build(const ScenarioSpec& spec);

/// Engine over a built bundle with the spec's sim config (the bundle is
/// copied; one bundle can seed any number of engines, e.g. sweep lanes).
sim::SimulationEngine make_engine(const ScenarioBundle& bundle, const ScenarioSpec& spec);

}  // namespace gp::scenario
