// Solver micro-benchmarks (google-benchmark): how the ADMM and IPM paths
// scale with the DSPP window dimensions (L data centers x V access networks
// x W periods), plus the sparse LDL^T kernel (factor and solve) and its
// minimum-degree ordering on window KKT systems (the ADMM KKT and a polish
// reduced KKT).
//
// These justify the solver architecture: a window with slack capacity is
// solved network by network (BM_SeparableWindow, next to ADMM on the same
// paper_full and scale_smoke MPC windows; BM_SoftBestResponse for a soft
// tenant_day best response); every other window takes the sparse ADMM path
// (near-linear in nonzeros per iteration after one factorization); the
// dense IPM is the small-problem cross-checker (cubic).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cmath>

#include "dspp/separable_window.hpp"
#include "dspp/window_program.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "qp/admm_solver.hpp"
#include "qp/ipm_solver.hpp"
#include "scenario/registry.hpp"
#include "workload/demand.hpp"

namespace {

using namespace gp;

/// Builds a window program of the given dimensions on the paper scenario.
dspp::WindowProgram make_window(std::size_t num_dcs, std::size_t num_cities,
                                std::size_t horizon) {
  static std::vector<std::unique_ptr<scenario::ScenarioBundle>> keep_alive;  // owns models
  keep_alive.push_back(
      std::make_unique<scenario::ScenarioBundle>(scenario::build(scenario::section7_spec(num_dcs, num_cities, 1.5e-5))));
  auto& scenario = *keep_alive.back();
  // Loose SLA so every (l, v) pair is usable: maximizes the pair count for
  // a given (L, V), i.e. the hardest window program of those dimensions.
  scenario.model.sla.max_latency_ms = 60.0;
  const dspp::PairIndex pairs(scenario.model);
  dspp::WindowInputs inputs;
  inputs.initial_state.assign(pairs.num_pairs(), 1.0);
  for (std::size_t t = 0; t < horizon; ++t) {
    inputs.demand.push_back(scenario.demand.mean_rates(static_cast<double>(t)));
    inputs.price.push_back(scenario.prices.server_prices(static_cast<double>(t)));
  }
  return dspp::WindowProgram(scenario.model, pairs, std::move(inputs));
}

void BM_AdmmWindow(benchmark::State& state) {
  const auto num_dcs = static_cast<std::size_t>(state.range(0));
  const auto num_cities = static_cast<std::size_t>(state.range(1));
  const auto horizon = static_cast<std::size_t>(state.range(2));
  const auto program = make_window(num_dcs, num_cities, horizon);
  qp::AdmmSolver solver;
  for (auto _ : state) {
    auto solution = program.solve(solver);
    benchmark::DoNotOptimize(solution.objective);
    if (!solution.ok()) state.SkipWithError("ADMM failed");
  }
  state.counters["vars"] = static_cast<double>(program.problem().num_variables());
  state.counters["rows"] = static_cast<double>(program.problem().num_constraints());
}
BENCHMARK(BM_AdmmWindow)
    ->Args({1, 1, 5})
    ->Args({2, 6, 5})
    ->Args({4, 12, 5})
    ->Args({4, 24, 5})
    ->Args({4, 24, 10})
    ->Unit(benchmark::kMillisecond);

void BM_IpmWindow(benchmark::State& state) {
  const auto num_dcs = static_cast<std::size_t>(state.range(0));
  const auto num_cities = static_cast<std::size_t>(state.range(1));
  const auto horizon = static_cast<std::size_t>(state.range(2));
  const auto program = make_window(num_dcs, num_cities, horizon);
  qp::IpmSolver solver;
  for (auto _ : state) {
    auto solution = program.solve(solver);
    benchmark::DoNotOptimize(solution.objective);
    if (!solution.ok()) state.SkipWithError("IPM failed");
  }
  state.counters["vars"] = static_cast<double>(program.problem().num_variables());
}
BENCHMARK(BM_IpmWindow)
    ->Args({1, 1, 5})
    ->Args({2, 6, 5})
    ->Args({4, 12, 5})
    ->Unit(benchmark::kMillisecond);

/// One MPC window of a preset (index 0 = paper_full, 1 = scale_smoke): the
/// mean-demand and price forecasts of hours 9..13 from the cheapest
/// placement of hour 8, the morning ramp.
struct PresetWindow {
  explicit PresetWindow(const char* name) : bundle(scenario::build(scenario::preset(name))) {}
  scenario::ScenarioBundle bundle;
  std::unique_ptr<dspp::PairIndex> pairs;
  dspp::WindowInputs inputs;
};

/// Window inputs over hours 9 .. 8 + horizon, starting from the cheapest
/// placement (min p_l a_lv per network) of hour 8's demand: the morning ramp.
dspp::WindowInputs morning_window(const dspp::PairIndex& pairs,
                                  const workload::DemandModel& demand_model,
                                  const workload::ServerPriceModel& prices, std::size_t horizon) {
  dspp::WindowInputs inputs;
  inputs.initial_state.assign(pairs.num_pairs(), 0.0);
  const auto demand = demand_model.mean_rates(8.0);
  const auto price = prices.server_prices(8.0);
  for (std::size_t v = 0; v < pairs.num_access_networks(); ++v) {
    std::size_t best = 0;
    double best_cost = 0.0;
    for (const std::size_t pair : pairs.pairs_of_access_network(v)) {
      const double cost = price[pairs.datacenter_of(pair)] * pairs.coefficient(pair);
      if (best_cost == 0.0 || cost < best_cost) {
        best = pair;
        best_cost = cost;
      }
    }
    inputs.initial_state[best] = demand[v] * pairs.coefficient(best);
  }
  for (std::size_t t = 0; t < horizon; ++t) {
    const double hour = 9.0 + static_cast<double>(t);
    inputs.demand.push_back(demand_model.mean_rates(hour));
    inputs.price.push_back(prices.server_prices(hour));
  }
  return inputs;
}

const PresetWindow& preset_window(std::int64_t which) {
  static std::vector<std::unique_ptr<PresetWindow>> windows(2);
  auto& window = windows[static_cast<std::size_t>(which)];
  if (window == nullptr) {
    window = std::make_unique<PresetWindow>(which == 0 ? "paper_full" : "scale_smoke");
    window->pairs = std::make_unique<dspp::PairIndex>(window->bundle.model);
    window->inputs =
        morning_window(*window->pairs, window->bundle.demand, window->bundle.prices, 5);
  }
  return *window;
}

// Args: (preset, warm) with preset 0 = paper_full, 1 = scale_smoke; warm 1
// starts every solve from the previous one's active set, as the MPC loop
// does. The solves alternate between two copies of the window one ulp of
// price apart: an MPC step's inputs always move, so a warm solve never
// keeps the last relaxation here.
void BM_SeparableWindow(benchmark::State& state) {
  const PresetWindow& window = preset_window(state.range(0));
  const bool warm = state.range(1) == 1;
  dspp::SeparableWindow solver(window.bundle.model, *window.pairs);
  std::array<dspp::WindowInputs, 2> inputs{window.inputs, window.inputs};
  inputs[1].price[0][0] = std::nextafter(inputs[1].price[0][0], 1.0);
  std::size_t next = 0;
  int steps = 0;
  for (auto _ : state) {
    const auto outcome = solver.solve(inputs[next], warm, 1);
    next ^= 1;
    if (outcome != dspp::SeparableOutcome::kCertified) state.SkipWithError("not certified");
    steps = solver.last_active_set_steps();
    benchmark::DoNotOptimize(steps);
  }
  state.counters["networks"] = static_cast<double>(solver.num_networks());
  state.counters["active_set_steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_SeparableWindow)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

// The same windows by ADMM (structure-cached, as the MPC loop runs it).
void BM_AdmmPresetWindow(benchmark::State& state) {
  const PresetWindow& window = preset_window(state.range(0));
  const dspp::WindowProgram program(window.bundle.model, *window.pairs, window.inputs);
  qp::AdmmSolver solver;
  for (auto _ : state) {
    auto solution = program.solve(solver);
    benchmark::DoNotOptimize(solution.objective);
    if (!solution.ok()) state.SkipWithError("ADMM failed");
  }
  state.counters["vars"] = static_cast<double>(program.problem().num_variables());
}
BENCHMARK(BM_AdmmPresetWindow)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// A best response of perfbench's tenant_day: its tenant 0 (paper_full with
/// a 32 ms SLA, reconfiguration weight 0.002, 2e-5 requests/s per
/// inhabitant) on a W = 3 soft window (penalty 5, the game's default) under
/// the equal quota split 110 / 4 per DC, which the morning ramp leaves slack.
struct SoftBestResponse {
  SoftBestResponse() : bundle(scenario::build(scenario::preset("paper_full"))) {
    bundle.model.sla.max_latency_ms = 32.0;
    bundle.model.reconfig_cost.assign(bundle.model.num_datacenters(), 0.002);
    pairs = std::make_unique<dspp::PairIndex>(bundle.model);
    const auto demand = workload::DemandModel::from_cities(bundle.cities, 2.0e-5,
                                                           workload::DiurnalProfile());
    inputs = morning_window(*pairs, demand, bundle.prices, 3);
    inputs.capacity_override = linalg::Vector(bundle.model.num_datacenters(), 110.0 / 4.0);
    inputs.soft_demand_penalty = 5.0;
  }
  scenario::ScenarioBundle bundle;
  std::unique_ptr<dspp::PairIndex> pairs;
  dspp::WindowInputs inputs;
};

// Args: path 0 = separable, a new window (cold active sets); 1 = separable,
// a later Jacobi round of the same window (only the quota moved: the kept
// relaxation and a quota re-check); 2 = ADMM as the game configures it
// (polished, structure-cached), started from zero.
void BM_SoftBestResponse(benchmark::State& state) {
  static const SoftBestResponse window;
  const std::int64_t path = state.range(0);
  if (path < 2) {
    dspp::SeparableWindow solver(window.bundle.model, *window.pairs);
    for (auto _ : state) {
      const auto outcome = solver.solve(window.inputs, path == 1, 1);
      if (outcome != dspp::SeparableOutcome::kCertified) state.SkipWithError("not certified");
      benchmark::DoNotOptimize(solver.last_active_set_steps());
    }
    state.counters["networks"] = static_cast<double>(solver.num_networks());
    return;
  }
  const dspp::WindowProgram program(window.bundle.model, *window.pairs, window.inputs);
  qp::AdmmSettings settings;
  settings.polish = true;
  qp::AdmmSolver solver(settings);
  for (auto _ : state) {
    auto solution = program.solve(solver);
    benchmark::DoNotOptimize(solution.objective);
    if (!solution.ok()) state.SkipWithError("ADMM failed");
  }
  state.counters["vars"] = static_cast<double>(program.problem().num_variables());
}
BENCHMARK(BM_SoftBestResponse)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

/// The upper triangle of a window program's KKT matrix (4 DCs x num_cities,
/// horizon 8). ADMM shape: [[P + sigma I, A^T], [A, -diag(1/rho)]] over every
/// row. Polish shape: the reduced [[P + dI, A_act^T], [A_act, -dI]] over the
/// rows a polish keeps after an ADMM solve of that window — every equality
/// row plus the inequality rows with a nonzero dual.
linalg::SparseMatrix window_kkt(std::size_t num_cities, bool polish_shaped) {
  const auto program = make_window(4, num_cities, 8);
  const auto& problem = program.problem();
  const auto n = static_cast<std::int32_t>(problem.num_variables());
  std::vector<std::int32_t> slot(problem.num_constraints(), -1);
  std::int32_t k = 0;
  if (polish_shaped) {
    qp::AdmmSolver solver;
    const auto result = solver.solve(problem);
    for (std::size_t i = 0; i < slot.size(); ++i) {
      const bool equality = problem.lower[i] == problem.upper[i];
      if (equality || std::abs(result.y[i]) > 1e-10) slot[i] = k++;
    }
  } else {
    for (auto& s : slot) s = k++;
  }
  const double top = polish_shaped ? 1e-9 : 1e-6;
  const double bottom = polish_shaped ? -1e-9 : -10.0;
  std::vector<linalg::Triplet> triplets;
  for (std::int32_t i = 0; i < n; ++i) triplets.push_back({i, i, top});
  const auto pu = problem.p.upper_triangle();
  for (std::int32_t c = 0; c < pu.cols(); ++c) {
    for (std::int32_t e = pu.col_ptr()[c]; e < pu.col_ptr()[c + 1]; ++e) {
      triplets.push_back({pu.row_idx()[e], c, pu.values()[e]});
    }
  }
  const auto& a = problem.a;
  for (std::int32_t c = 0; c < a.cols(); ++c) {
    for (std::int32_t e = a.col_ptr()[c]; e < a.col_ptr()[c + 1]; ++e) {
      const std::int32_t r = slot[static_cast<std::size_t>(a.row_idx()[e])];
      if (r >= 0) triplets.push_back({c, n + r, a.values()[e]});
    }
  }
  for (std::int32_t r = 0; r < k; ++r) triplets.push_back({n + r, n + r, bottom});
  return linalg::SparseMatrix::from_triplets(n + k, n + k, triplets);
}

// Args: (cities, shape) with shape 0 = the ADMM KKT, 1 = a polish reduced KKT.
void BM_SparseLdltFactor(benchmark::State& state) {
  const auto kkt = window_kkt(static_cast<std::size_t>(state.range(0)), state.range(1) == 1);
  for (auto _ : state) {
    linalg::SparseLdlt ldlt;
    const auto status = ldlt.factor(kkt);
    benchmark::DoNotOptimize(status);
    if (status != linalg::SparseLdlt::Status::kOk) state.SkipWithError("factor failed");
  }
  state.counters["dim"] = static_cast<double>(kkt.rows());
}
BENCHMARK(BM_SparseLdltFactor)
    ->Args({6, 0})
    ->Args({12, 0})
    ->Args({24, 0})
    ->Args({24, 1})
    ->Unit(benchmark::kMillisecond);

// One solve against a kept factor: the per-iteration KKT cost of the ADMM
// loop. The right-hand side is refreshed from a fixed one every iteration,
// so each solve sees the same, fully dense input.
void BM_SparseLdltSolve(benchmark::State& state) {
  const auto kkt = window_kkt(static_cast<std::size_t>(state.range(0)), state.range(1) == 1);
  linalg::SparseLdlt ldlt;
  if (ldlt.factor(kkt) != linalg::SparseLdlt::Status::kOk) {
    state.SkipWithError("factor failed");
    return;
  }
  linalg::Vector rhs(static_cast<std::size_t>(kkt.rows()));
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = std::sin(static_cast<double>(i) + 1.0);
  linalg::Vector x(rhs.size());
  for (auto _ : state) {
    std::copy(rhs.begin(), rhs.end(), x.begin());
    ldlt.solve_in_place(x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.counters["dim"] = static_cast<double>(kkt.rows());
  state.counters["l_nnz"] = static_cast<double>(ldlt.l_nnz());
}
BENCHMARK(BM_SparseLdltSolve)
    ->Args({6, 0})
    ->Args({12, 0})
    ->Args({24, 0})
    ->Args({24, 1})
    ->Unit(benchmark::kMicrosecond);

// The ordering alone: the symbolic cost every factor() pays up front.
void BM_MinimumDegreeOrdering(benchmark::State& state) {
  const auto kkt = window_kkt(static_cast<std::size_t>(state.range(0)), state.range(1) == 1);
  for (auto _ : state) {
    auto perm = linalg::minimum_degree_ordering(kkt);
    benchmark::DoNotOptimize(perm.data());
  }
  state.counters["dim"] = static_cast<double>(kkt.rows());
}
BENCHMARK(BM_MinimumDegreeOrdering)
    ->Args({12, 0})
    ->Args({24, 0})
    ->Args({24, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
