// Differential tests of the separable window solver (dspp::SeparableWindow)
// against the dense IPM and full ADMM on the same window program, on random
// small windows, hard and soft, and on the degenerate inputs that stall
// plain PDAS; plus the routing of WindowSolver (certified windows, capacity
// and slack fallbacks, relaxation reuse) and its KKT certificate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/rng.hpp"
#include "control/mpc_controller.hpp"
#include "dspp/separable_window.hpp"
#include "dspp/window_program.hpp"
#include "dspp/window_solver.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qp/admm_solver.hpp"
#include "qp/ipm_solver.hpp"
#include "scenario/policy.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "topology/continental.hpp"

namespace gp {
namespace {

using linalg::Vector;

/// Random geography with every pair feasible (generous latency bound);
/// `pairs_per_network` in [1, num_l] prunes each network's candidates.
dspp::DsppModel random_model(std::size_t num_l, std::size_t num_v,
                             std::size_t pairs_per_network, Rng& rng) {
  topology::ContinentalSpec spec;
  spec.num_datacenters = num_l;
  spec.num_access_networks = num_v;
  spec.seed = rng();
  const topology::ContinentalTopology topo = topology::generate_continental(spec);
  dspp::DsppModel model;
  model.network = topology::NetworkModel::from_geography(topo.sites, topo.cities);
  model.sla.max_latency_ms = 400.0;
  model.reconfig_cost.resize(num_l);
  for (double& c : model.reconfig_cost) c = rng.uniform(0.001, 0.05);
  model.capacity.assign(num_l, 500.0);
  model.candidates_per_an = pairs_per_network < num_l ? pairs_per_network : 0;
  return model;
}

dspp::WindowInputs random_inputs(const dspp::DsppModel& model, const dspp::PairIndex& pairs,
                                 std::size_t horizon, Rng& rng) {
  dspp::WindowInputs inputs;
  inputs.initial_state.resize(pairs.num_pairs());
  for (double& x : inputs.initial_state) x = rng.uniform(0.0, 1.0) < 0.3 ? 0.0 : rng.uniform(0.0, 4.0);
  for (std::size_t t = 0; t < horizon; ++t) {
    Vector demand(model.num_access_networks());
    for (double& d : demand) d = rng.uniform(0.0, 1.0) < 0.15 ? 0.0 : rng.uniform(1.0, 300.0);
    inputs.demand.push_back(std::move(demand));
    Vector price(model.num_datacenters());
    for (double& p : price) p = rng.uniform(0.02, 0.4);
    inputs.price.push_back(std::move(price));
  }
  return inputs;
}

/// The IPM's default stopping rule scales its complementarity target by the
/// largest bound (the capacity), which leaves ~1e-6 relative on the window
/// objective; the reference runs tighter.
const qp::IpmSettings kTightIpm{1e-13};

double relative_gap(double a, double b) { return std::abs(a - b) / (1.0 + std::abs(b)); }

/// Solves `inputs` by the separable path (cold) and checks it against the
/// dense IPM on the assembled program: same objective, same allocations, and
/// the separable point laid out in the full QP is a KKT point of it.
void expect_matches_ipm(const dspp::DsppModel& model, const dspp::PairIndex& pairs,
                        const dspp::WindowInputs& inputs, const std::string& label) {
  dspp::SeparableWindow separable(model, pairs);
  ASSERT_EQ(separable.solve(inputs, /*warm=*/false, 1), dspp::SeparableOutcome::kCertified)
      << label;
  const dspp::WindowSolution solution = separable.solution(inputs);
  ASSERT_TRUE(solution.ok()) << label;
  EXPECT_EQ(solution.solver_iterations, 0) << label;
  EXPECT_GT(solution.active_set_steps, 0) << label;

  const dspp::WindowProgram program(model, pairs, inputs);
  qp::IpmSolver ipm(kTightIpm);
  const dspp::WindowSolution reference = program.solve(ipm);
  ASSERT_TRUE(reference.ok()) << label;
  EXPECT_LE(relative_gap(solution.objective, reference.objective), 1e-7) << label;
  double scale = 1.0;
  for (const auto& xt : reference.x) {
    for (const double x : xt) scale = std::max(scale, x);
  }
  for (std::size_t t = 0; t < inputs.demand.size(); ++t) {
    for (std::size_t p = 0; p < pairs.num_pairs(); ++p) {
      EXPECT_NEAR(solution.x[t][p], reference.x[t][p], 1e-5 * scale)
          << label << " t=" << t << " p=" << p;
    }
    for (const double dual : solution.capacity_duals[t]) EXPECT_EQ(dual, 0.0) << label;
  }

  // The certificate's claim, checked on the full window QP: the separable
  // point with zero capacity duals satisfies every KKT condition.
  Vector z, y;
  separable.warm_start_point(program, z, y);
  const qp::KktCertificate cert = qp::kkt_certificate(program.problem(), z, y);
  const double tol = 1e-7 * (1.0 + scale);
  EXPECT_LE(cert.primal, tol) << label;
  EXPECT_LE(cert.stationarity, tol) << label;
  EXPECT_LE(cert.dual_sign, tol) << label;
  EXPECT_LE(cert.complementarity, tol) << label;
}

/// Best-response solver settings of the competition game (polished ADMM,
/// warm-started from its own last iterate).
dspp::WindowSolverSettings game_settings() {
  dspp::WindowSolverSettings settings;
  settings.solver.polish = true;
  settings.solver.auto_warm_start = true;
  return settings;
}

/// The largest demand dual lambda_t of `separable`'s last relaxation, read
/// off its warm-start point on the hard program (y = -lambda on demand rows).
double largest_demand_dual(const dspp::DsppModel& model, const dspp::PairIndex& pairs,
                           const dspp::SeparableWindow& separable, dspp::WindowInputs inputs) {
  inputs.soft_demand_penalty = 0.0;
  const std::size_t horizon = inputs.demand.size();
  const dspp::WindowProgram hard(model, pairs, std::move(inputs));
  Vector z, y;
  separable.warm_start_point(hard, z, y);
  double largest = 0.0;
  for (std::size_t t = 0; t < horizon; ++t) {
    for (std::size_t v = 0; v < model.num_access_networks(); ++v) {
      largest = std::max(largest, -y[hard.demand_row(t, v)]);
    }
  }
  return largest;
}

double total_unserved(const dspp::WindowSolution& solution) {
  double total = 0.0;
  for (const auto& row : solution.unserved) {
    for (const double value : row) total += value;
  }
  return total;
}

/// Quotas under which the relaxation of `inputs` breaks exactly one DC's
/// capacity: 80% of the busiest DC's peak use there, 500 elsewhere.
Vector binding_quota(const dspp::DsppModel& model, const dspp::PairIndex& pairs,
                     const dspp::WindowInputs& inputs) {
  dspp::SeparableWindow separable(model, pairs);
  EXPECT_EQ(separable.solve(inputs, false, 1), dspp::SeparableOutcome::kCertified);
  const dspp::WindowSolution relaxation = separable.solution(inputs);
  double busiest = 0.0;
  std::size_t busiest_l = 0;
  for (const Vector& xt : relaxation.x) {
    for (std::size_t l = 0; l < model.num_datacenters(); ++l) {
      double used = 0.0;
      for (const std::size_t pair : pairs.pairs_of_datacenter(l)) used += model.server_size * xt[pair];
      if (used > busiest) {
        busiest = used;
        busiest_l = l;
      }
    }
  }
  Vector quota(model.num_datacenters(), 500.0);
  quota[busiest_l] = 0.8 * busiest;
  return quota;
}

TEST(SeparableWindow, MatchesIpmAndAdmmOnRandomWindows) {
  Rng rng(2027);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t num_l = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const std::size_t num_v = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const std::size_t pairs_per_network = static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(num_l)));
    const std::size_t horizon = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const dspp::DsppModel model = random_model(num_l, num_v, pairs_per_network, rng);
    const dspp::PairIndex pairs(model);
    const dspp::WindowInputs inputs = random_inputs(model, pairs, horizon, rng);
    const std::string label = "trial " + std::to_string(trial) + " L=" +
                              std::to_string(num_l) + " V=" + std::to_string(num_v) +
                              " W=" + std::to_string(horizon);
    expect_matches_ipm(model, pairs, inputs, label);

    // Full ADMM on the same program, polished to a near-exact KKT point.
    qp::AdmmSettings settings;
    settings.eps_abs = 1e-9;
    settings.eps_rel = 1e-9;
    settings.polish = true;
    qp::AdmmSolver admm(settings);
    const dspp::WindowSolution full = dspp::WindowProgram(model, pairs, inputs).solve(admm);
    ASSERT_TRUE(full.ok()) << label;
    dspp::SeparableWindow separable(model, pairs);
    ASSERT_EQ(separable.solve(inputs, false, 1), dspp::SeparableOutcome::kCertified);
    const dspp::WindowSolution hard = separable.solution(inputs);
    EXPECT_LE(relative_gap(hard.objective, full.objective), 1e-6) << label;

    // The same window with soft demand at Algorithm 2's penalty (5 $ per
    // unserved req/s, far above every demand dual here) is its relaxation:
    // the same allocations, nothing unserved. Polished ADMM on the soft
    // program checks it (the tight IPM does not always converge there: its
    // penalty column dominates the IPM's scaling).
    dspp::WindowInputs soft = inputs;
    soft.soft_demand_penalty = 5.0;
    ASSERT_EQ(separable.solve(soft, false, 1), dspp::SeparableOutcome::kCertified) << label;
    const dspp::WindowSolution solution = separable.solution(soft);
    EXPECT_EQ(solution.x, hard.x) << label;
    EXPECT_EQ(solution.objective, hard.objective) << label;
    ASSERT_EQ(solution.unserved.size(), horizon) << label;
    for (const Vector& row : solution.unserved) EXPECT_EQ(row, Vector(num_v, 0.0)) << label;
    const dspp::WindowProgram soft_program(model, pairs, soft);
    qp::AdmmSolver soft_admm(settings);
    const dspp::WindowSolution soft_full = soft_program.solve(soft_admm);
    ASSERT_TRUE(soft_full.ok()) << label;
    EXPECT_LE(relative_gap(solution.objective, soft_full.objective), 1e-6) << label;
    EXPECT_LE(total_unserved(soft_full), 1e-6) << label;
    double scale = 1.0;
    for (const auto& xt : soft_full.x) {
      for (const double x : xt) scale = std::max(scale, x);
    }
    for (std::size_t t = 0; t < horizon; ++t) {
      for (std::size_t p = 0; p < pairs.num_pairs(); ++p) {
        EXPECT_NEAR(solution.x[t][p], soft_full.x[t][p], 1e-5 * scale)
            << label << " t=" << t << " p=" << p;
      }
    }
  }
}

TEST(SeparableWindow, DegenerateInputsAreCertified) {
  Rng rng(99);
  const dspp::DsppModel model = random_model(4, 5, 3, rng);
  const dspp::PairIndex pairs(model);
  const std::size_t horizon = 6;

  // Zero-demand periods (all networks), from a positive initial state.
  dspp::WindowInputs zeros = random_inputs(model, pairs, horizon, rng);
  for (const std::size_t t : {1, 2, 5}) std::fill(zeros.demand[t].begin(), zeros.demand[t].end(), 0.0);
  std::fill(zeros.initial_state.begin(), zeros.initial_state.end(), 3.0);
  expect_matches_ipm(model, pairs, zeros, "zero-demand periods");

  // Every period zero.
  dspp::WindowInputs idle = zeros;
  for (auto& d : idle.demand) std::fill(d.begin(), d.end(), 0.0);
  expect_matches_ipm(model, pairs, idle, "all-zero demand");

  // Flat cold-start forecasts (a seasonal predictor with one observation)
  // from x_0 = 0, ending in a drop.
  dspp::WindowInputs flat = random_inputs(model, pairs, horizon, rng);
  std::fill(flat.initial_state.begin(), flat.initial_state.end(), 0.0);
  for (std::size_t t = 0; t < horizon; ++t) {
    for (std::size_t v = 0; v < model.num_access_networks(); ++v) {
      flat.demand[t][v] = t + 1 < horizon ? 66.8 : 16.8;
    }
    flat.price[t] = flat.price[0];
  }
  expect_matches_ipm(model, pairs, flat, "flat cold start");

  // Equal p_l a_lv across every pair of network 0 (the cheapest-pair start
  // breaks the tie by index).
  dspp::WindowInputs ties = random_inputs(model, pairs, horizon, rng);
  for (std::size_t t = 0; t < horizon; ++t) {
    for (const std::size_t pair : pairs.pairs_of_access_network(0)) {
      ties.price[t][pairs.datacenter_of(pair)] = 0.002 / pairs.coefficient(pair);
    }
  }
  expect_matches_ipm(model, pairs, ties, "equal p*a ties");
}

TEST(SeparableWindow, RecordedColdStartStallIsSolvedBySafeguard) {
  // paper_full, seed 1, seasonal predictors: in period 19 network 14's
  // forecast is flat (66.8 four times, then 16.8) and the shifted active set
  // leaves a positive-demand period with every pair on its bound. Plain
  // PDAS stalls there; the safeguard must solve it.
  auto spec = scenario::preset("paper_full");
  spec.sim.periods = 20;
  spec.sim.seed = 1;
  const scenario::ScenarioBundle bundle = scenario::build(spec);
  const dspp::PairIndex pairs(bundle.model);
  control::MpcSettings settings;
  settings.horizon = 5;
  control::MpcController controller(bundle.model, settings,
                                    scenario::make_predictor("seasonal"),
                                    scenario::make_predictor("seasonal"));
  auto demand_predictor = scenario::make_predictor("seasonal");
  auto price_predictor = scenario::make_predictor("seasonal");
  dspp::SeparableWindow separable(bundle.model, pairs);
  std::optional<dspp::WindowInputs> stalled;
  sim::SimulationEngine engine = scenario::make_engine(bundle, spec);
  std::size_t k = 0;
  engine.run([&](const Vector& state, const Vector& demand, const Vector& price) {
    demand_predictor->observe(demand);
    price_predictor->observe(price);
    dspp::WindowInputs inputs;
    inputs.initial_state = state;
    inputs.demand = demand_predictor->forecast(settings.horizon);
    inputs.price = price_predictor->forecast(settings.horizon);
    EXPECT_EQ(separable.solve(inputs, /*warm=*/true, 1), dspp::SeparableOutcome::kCertified)
        << "period " << k;
    if (k == 19) stalled = inputs;
    ++k;
    const control::MpcStepResult step = controller.step(state, demand, price);
    return sim::PolicyOutcome{step.solved, step.control, step.next_state};
  });
  ASSERT_TRUE(stalled.has_value());
  ASSERT_NEAR(stalled->demand[0][14], 66.8, 0.05);
  ASSERT_NEAR(stalled->demand[4][14], 16.8, 0.05);
  EXPECT_TRUE(separable.last_safeguarded(14));
  EXPECT_EQ(controller.window_path_stats().separable, 20);
  EXPECT_GE(controller.window_path_stats().safeguard_runs, 1);

  // The safeguard's point is a KKT point of the full window QP (the dense
  // IPM is too slow at this size for a unit test).
  const dspp::WindowProgram program(bundle.model, pairs, *stalled);
  Vector z, y;
  separable.warm_start_point(program, z, y);
  const qp::KktCertificate cert = qp::kkt_certificate(program.problem(), z, y);
  EXPECT_LE(std::max({cert.primal, cert.stationarity, cert.dual_sign, cert.complementarity}),
            1e-9);
  qp::AdmmSettings tight;
  tight.eps_abs = 1e-9;
  tight.eps_rel = 1e-9;
  tight.polish = true;
  qp::AdmmSolver admm(tight);
  const dspp::WindowSolution reference = program.solve(admm);
  ASSERT_TRUE(reference.ok());
  EXPECT_LE(relative_gap(separable.solution(*stalled).objective, reference.objective), 1e-7);
}

TEST(SeparableWindow, BindingCapacityFallsBackToAdmm) {
  // paper_full's first 8 cities with oracle forecasts and 8 servers per DC:
  // the busy hours need more than that from the cheapest DC, so their
  // separable point breaks a capacity row and ADMM solves the window
  // (warm-started from the separable point). Those windows must stay within
  // ADMM's objective gap of the IPM: 1e-4 relative (ADMM stops at 1e-6
  // residuals). At 6 per DC the later windows are infeasible on this
  // trajectory for either path.
  auto spec = scenario::preset("paper_full");
  spec.num_cities = 8;
  spec.sim.periods = 16;
  spec.sim.seed = 1;
  scenario::ScenarioBundle bundle = scenario::build(spec);
  bundle.model.capacity.assign(bundle.model.num_datacenters(), 8.0);
  const dspp::PairIndex pairs(bundle.model);
  control::MpcSettings settings;
  settings.horizon = 5;
  const auto demand_trace = scenario::mean_demand_trace(bundle, spec);
  const auto prices = scenario::price_trace(bundle, spec);
  control::MpcController controller(bundle.model, settings,
                                    scenario::make_predictor("oracle", demand_trace),
                                    scenario::make_predictor("oracle", prices));
  auto demand_predictor = scenario::make_predictor("oracle", demand_trace);
  auto price_predictor = scenario::make_predictor("oracle", prices);
  sim::SimulationEngine engine = scenario::make_engine(bundle, spec);
  int binding = 0, slack = 0, compared = 0;
  engine.run([&](const Vector& state, const Vector& demand, const Vector& price) {
    demand_predictor->observe(demand);
    price_predictor->observe(price);
    dspp::WindowInputs inputs;
    inputs.initial_state = state;
    inputs.demand = demand_predictor->forecast(settings.horizon);
    inputs.price = price_predictor->forecast(settings.horizon);
    const long long fallbacks_before = controller.window_path_stats().fallback_capacity;
    const control::MpcStepResult step = controller.step(state, demand, price);
    EXPECT_TRUE(step.solved);
    if (controller.window_path_stats().fallback_capacity > fallbacks_before) {
      ++binding;
      EXPECT_GT(step.solver_iterations, 0);
      if (compared < 3) {  // the dense IPM is slow; a few windows suffice
        ++compared;
        qp::IpmSolver ipm(kTightIpm);
        const dspp::WindowSolution reference =
            dspp::WindowProgram(bundle.model, pairs, inputs).solve(ipm);
        EXPECT_TRUE(reference.ok());
        EXPECT_LE(relative_gap(step.window_objective, reference.objective), 1e-4);
        double price_sum = 0.0;
        for (const double p : step.capacity_price) price_sum += p;
        EXPECT_GT(price_sum, 0.0) << "a binding window prices its capacity";
      }
    } else {
      ++slack;
      EXPECT_EQ(step.solver_iterations, 0);
      for (const double p : step.capacity_price) EXPECT_EQ(p, 0.0);
    }
    return sim::PolicyOutcome{step.solved, step.control, step.next_state};
  });
  EXPECT_GT(binding, 0);
  EXPECT_GT(slack, 0);
  EXPECT_EQ(controller.window_path_stats().fallback_uncertified, 0);
}

TEST(SeparableWindow, SoftDemandAndZeroReconfigTakeAdmm) {
  Rng rng(5);
  dspp::DsppModel model = random_model(3, 4, 2, rng);
  const dspp::PairIndex pairs(model);
  dspp::WindowInputs inputs = random_inputs(model, pairs, 3, rng);
  {
    // A soft window reaches ADMM when its quota binds.
    dspp::WindowSolver solver(model, pairs, dspp::WindowSolverSettings{});
    dspp::WindowInputs soft = inputs;
    soft.soft_demand_penalty = 20.0;
    soft.capacity_override = binding_quota(model, pairs, soft);
    const dspp::WindowSolution solution = solver.solve(soft);
    EXPECT_TRUE(solution.ok());
    EXPECT_GT(solution.solver_iterations, 0);
    EXPECT_EQ(solver.path_stats().fallback_capacity, 1);
    EXPECT_EQ(solver.path_stats().separable, 0);
  }
  model.reconfig_cost[1] = 0.0;
  EXPECT_FALSE(dspp::SeparableWindow::applies_to(model, pairs));
  dspp::WindowSolver solver(model, pairs, dspp::WindowSolverSettings{});
  const dspp::WindowSolution solution = solver.solve(inputs);
  EXPECT_TRUE(solution.ok());
  EXPECT_GT(solution.solver_iterations, 0);
  EXPECT_EQ(solver.path_stats().fallback_zero_reconfig, 1);
  EXPECT_EQ(solver.path_stats().separable, 0);
}

TEST(SeparableWindow, WarmStepsMatchColdSolves) {
  // Shifted active sets change the route, never the answer: a warm sequence
  // and fresh cold solves agree to the certificate's precision.
  Rng rng(17);
  const dspp::DsppModel model = random_model(5, 6, 3, rng);
  const dspp::PairIndex pairs(model);
  dspp::SeparableWindow warm(model, pairs);
  for (int step = 0; step < 6; ++step) {
    const dspp::WindowInputs inputs = random_inputs(model, pairs, 5, rng);
    ASSERT_EQ(warm.solve(inputs, true, 1), dspp::SeparableOutcome::kCertified);
    dspp::SeparableWindow cold(model, pairs);
    ASSERT_EQ(cold.solve(inputs, false, 1), dspp::SeparableOutcome::kCertified);
    const auto a = warm.solution(inputs);
    const auto b = cold.solution(inputs);
    EXPECT_LE(relative_gap(a.objective, b.objective), 1e-12);
    for (std::size_t t = 0; t < 5; ++t) {
      for (std::size_t p = 0; p < pairs.num_pairs(); ++p) {
        EXPECT_NEAR(a.x[t][p], b.x[t][p], 1e-9);
      }
    }
  }
}

TEST(SeparableWindow, SlackNeededFallsBackToAdmmAndMatchesIpm) {
  // A penalty at half the largest demand dual: serving that demand costs
  // more than leaving it unserved, so the relaxation is not the soft
  // window's optimum and ADMM must find the unserved demand IPM finds.
  Rng rng(31);
  for (int trial = 0; trial < 4; ++trial) {
    const dspp::DsppModel model = random_model(4, 5, 3, rng);
    const dspp::PairIndex pairs(model);
    dspp::WindowInputs inputs = random_inputs(model, pairs, 4, rng);
    const std::string label = "trial " + std::to_string(trial);
    dspp::SeparableWindow separable(model, pairs);
    ASSERT_EQ(separable.solve(inputs, false, 1), dspp::SeparableOutcome::kCertified) << label;
    const double largest = largest_demand_dual(model, pairs, separable, inputs);
    ASSERT_GT(largest, 0.0) << label;
    inputs.soft_demand_penalty = 0.5 * largest;
    EXPECT_EQ(separable.solve(inputs, false, 1), dspp::SeparableOutcome::kSlackNeeded) << label;

    dspp::WindowSolver solver(model, pairs, game_settings());
    const dspp::WindowSolution solution = solver.solve(inputs);
    ASSERT_TRUE(solution.ok()) << label;
    EXPECT_GT(solution.solver_iterations, 0) << label;
    EXPECT_EQ(solver.path_stats().fallback_slack, 1) << label;
    EXPECT_EQ(solver.path_stats().separable, 0) << label;

    qp::IpmSolver ipm(kTightIpm);
    const dspp::WindowSolution reference = dspp::WindowProgram(model, pairs, inputs).solve(ipm);
    ASSERT_TRUE(reference.ok()) << label;
    EXPECT_LE(relative_gap(solution.objective, reference.objective), 1e-6) << label;
    const double unserved = total_unserved(reference);
    EXPECT_GT(unserved, 1.0) << label;
    EXPECT_NEAR(total_unserved(solution), unserved, 1e-4 * unserved) << label;
  }
}

TEST(SeparableWindow, PenaltyAtTheLargestDemandDualIsCertified) {
  // lambda_t = pi exactly: (x*, xi = 0) is still optimal, so the window is
  // its relaxation. A penalty 1e-4 below that dual needs slack.
  Rng rng(37);
  const dspp::DsppModel model = random_model(4, 5, 3, rng);
  const dspp::PairIndex pairs(model);
  dspp::WindowInputs inputs = random_inputs(model, pairs, 5, rng);
  dspp::SeparableWindow separable(model, pairs);
  ASSERT_EQ(separable.solve(inputs, false, 1), dspp::SeparableOutcome::kCertified);
  const double largest = largest_demand_dual(model, pairs, separable, inputs);
  ASSERT_GT(largest, 0.0);

  inputs.soft_demand_penalty = largest;
  ASSERT_EQ(separable.solve(inputs, false, 1), dspp::SeparableOutcome::kCertified);
  const dspp::WindowSolution solution = separable.solution(inputs);
  EXPECT_EQ(total_unserved(solution), 0.0);
  qp::IpmSolver ipm(kTightIpm);
  const dspp::WindowSolution reference = dspp::WindowProgram(model, pairs, inputs).solve(ipm);
  ASSERT_TRUE(reference.ok());
  EXPECT_LE(relative_gap(solution.objective, reference.objective), 1e-7);

  inputs.soft_demand_penalty = largest * (1.0 - 1e-4);
  EXPECT_EQ(separable.solve(inputs, false, 1), dspp::SeparableOutcome::kSlackNeeded);
}

TEST(SeparableWindow, QuotaBindingSoftWindowsFallBackWithinGap) {
  // Best responses whose quota binds: the busiest DC's quota is 80% of what
  // the relaxation uses there. Polished ADMM must land within 1e-6 of IPM
  // and price the binding quota.
  Rng rng(2029);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t num_l = static_cast<std::size_t>(rng.uniform_int(2, 6));
    const std::size_t num_v = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const std::size_t pairs_per_network =
        static_cast<std::size_t>(rng.uniform_int(2, static_cast<std::int64_t>(num_l)));
    const std::size_t horizon = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const dspp::DsppModel model = random_model(num_l, num_v, pairs_per_network, rng);
    const dspp::PairIndex pairs(model);
    dspp::WindowInputs inputs = random_inputs(model, pairs, horizon, rng);
    inputs.soft_demand_penalty = 5.0;
    inputs.capacity_override = binding_quota(model, pairs, inputs);
    const std::string label = "trial " + std::to_string(trial) + " L=" +
                              std::to_string(num_l) + " V=" + std::to_string(num_v) +
                              " W=" + std::to_string(horizon);

    dspp::WindowSolver solver(model, pairs, game_settings());
    const dspp::WindowSolution solution = solver.solve(inputs);
    ASSERT_TRUE(solution.ok()) << label;
    EXPECT_EQ(solver.path_stats().fallback_capacity, 1) << label;
    qp::IpmSolver ipm(kTightIpm);
    const dspp::WindowSolution reference = dspp::WindowProgram(model, pairs, inputs).solve(ipm);
    ASSERT_TRUE(reference.ok()) << label;
    EXPECT_LE(relative_gap(solution.objective, reference.objective), 1e-6) << label;
    double price_sum = 0.0;
    for (const double p : solution.capacity_price()) price_sum += p;
    EXPECT_GT(price_sum, 0.0) << label;
  }
}

TEST(SeparableWindow, RelaxationReuseAcrossRoundsIsBitwiseAFreshSolve) {
  // Algorithm 2's rounds within one period: the busiest DC's quota binds
  // in round 0 (ADMM), then grows; round 1 keeps the relaxation, re-checks
  // the quota rows and certifies. Its answer is bit for bit what a fresh
  // solver returns.
  Rng rng(43);
  const dspp::DsppModel model = random_model(4, 6, 3, rng);
  const dspp::PairIndex pairs(model);
  dspp::WindowInputs inputs = random_inputs(model, pairs, 5, rng);
  inputs.soft_demand_penalty = 5.0;
  const Vector tight = binding_quota(model, pairs, inputs);
  const Vector slack(model.num_datacenters(), 500.0);

  dspp::WindowSolver rounds(model, pairs, game_settings());
  inputs.capacity_override = tight;
  ASSERT_TRUE(rounds.solve(inputs).ok());
  EXPECT_EQ(rounds.path_stats().fallback_capacity, 1);
  EXPECT_EQ(rounds.path_stats().relaxation_reused, 0);
  inputs.capacity_override = slack;
  const dspp::WindowSolution kept = rounds.solve(inputs);
  EXPECT_EQ(rounds.path_stats().relaxation_reused, 1);
  EXPECT_EQ(rounds.path_stats().separable, 1);

  dspp::WindowSolver fresh(model, pairs, game_settings());
  const dspp::WindowSolution reference = fresh.solve(inputs);
  EXPECT_EQ(fresh.path_stats().relaxation_reused, 0);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.x, reference.x);  // bitwise
  EXPECT_EQ(kept.u, reference.u);
  EXPECT_EQ(kept.unserved, reference.unserved);
  EXPECT_EQ(kept.objective, reference.objective);
  EXPECT_EQ(kept.active_set_steps, 0);  // no network was solved
  EXPECT_GT(reference.active_set_steps, 0);

  // One bit of one input drops the kept relaxation; a cold solve never
  // keeps it.
  inputs.price[2][1] = std::nextafter(inputs.price[2][1], 1.0);
  ASSERT_TRUE(rounds.solve(inputs).ok());
  EXPECT_EQ(rounds.path_stats().relaxation_reused, 1);
  dspp::SeparableWindow separable(model, pairs);
  ASSERT_EQ(separable.solve(inputs, true, 1), dspp::SeparableOutcome::kCertified);
  EXPECT_FALSE(separable.last_reused());
  ASSERT_EQ(separable.solve(inputs, true, 1), dspp::SeparableOutcome::kCertified);
  EXPECT_TRUE(separable.last_reused());
  EXPECT_EQ(separable.last_active_set_steps(), 0);
  ASSERT_EQ(separable.solve(inputs, false, 1), dspp::SeparableOutcome::kCertified);
  EXPECT_FALSE(separable.last_reused());
}

TEST(SeparableWindow, KeptRelaxationAfterAWarmStartMatchesAColdSolve) {
  // Round 0 starts from the previous period's shifted active sets. The kept
  // relaxation is that warm solve's; a cold solve may settle on another
  // optimal active set where the window is degenerate (a pair free at
  // x = 5.6e-16 instead of bound at 0 was seen), so the two agree to the
  // certificate's precision rather than bitwise.
  Rng rng(43);
  const dspp::DsppModel model = random_model(4, 6, 3, rng);
  const dspp::PairIndex pairs(model);
  dspp::WindowInputs previous = random_inputs(model, pairs, 5, rng);
  previous.soft_demand_penalty = 5.0;
  dspp::WindowInputs inputs = random_inputs(model, pairs, 5, rng);
  inputs.soft_demand_penalty = 5.0;

  dspp::WindowSolver rounds(model, pairs, game_settings());
  ASSERT_TRUE(rounds.solve(previous).ok());
  inputs.capacity_override = binding_quota(model, pairs, inputs);
  ASSERT_TRUE(rounds.solve(inputs).ok());
  inputs.capacity_override = Vector(model.num_datacenters(), 500.0);
  const dspp::WindowSolution kept = rounds.solve(inputs);
  EXPECT_EQ(rounds.path_stats().relaxation_reused, 1);

  dspp::WindowSolver fresh(model, pairs, game_settings());
  const dspp::WindowSolution reference = fresh.solve(inputs);
  EXPECT_LE(relative_gap(kept.objective, reference.objective), 1e-12);
  for (std::size_t t = 0; t < inputs.demand.size(); ++t) {
    for (std::size_t p = 0; p < pairs.num_pairs(); ++p) {
      EXPECT_NEAR(kept.x[t][p], reference.x[t][p], 1e-9);
    }
  }
}

TEST(SeparableWindow, MpcStepReportsPathCountersAndSpan) {
  Rng rng(8);
  const dspp::DsppModel model = random_model(3, 4, 2, rng);
  auto& registry = obs::Registry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  obs::Registry::reset_all();
  auto& tracer = obs::Tracer::global();
  tracer.start("unused_separable_span.jsonl");

  control::MpcSettings settings;
  settings.horizon = 3;
  control::MpcController hard(model, settings, std::make_unique<control::LastValuePredictor>(),
                              std::make_unique<control::LastValuePredictor>());
  // The soft controller's capacity binds, so its window reaches ADMM.
  dspp::DsppModel tight = model;
  tight.capacity.assign(model.num_datacenters(), 1e-3);
  settings.soft_demand_penalty = 10.0;
  control::MpcController soft(tight, settings, std::make_unique<control::LastValuePredictor>(),
                              std::make_unique<control::LastValuePredictor>());
  const Vector demand(model.num_access_networks(), 40.0);
  const Vector price(model.num_datacenters(), 0.1);
  Vector state(hard.pairs().num_pairs(), 0.0);
  for (int k = 0; k < 2; ++k) {
    const control::MpcStepResult step = hard.step(state, demand, price);
    ASSERT_TRUE(step.solved);
    EXPECT_EQ(step.solver_iterations, 0);
    EXPECT_GT(step.active_set_steps, 0);
    state = step.next_state;
  }
  EXPECT_TRUE(soft.step(Vector(soft.pairs().num_pairs(), 0.0), demand, price).solved);

  const std::vector<obs::TraceEvent> events = tracer.events();
  tracer.discard();
  tracer.stop();
  std::remove("unused_separable_span.jsonl");
  registry.set_enabled(was_enabled);

  EXPECT_EQ(registry.counter("window.separable_solves").value(), 2);
  EXPECT_EQ(registry.counter("window.fallback_solves").value(), 1);
  EXPECT_EQ(registry.counter("window.fallback.capacity").value(), 1);
  EXPECT_EQ(registry.counter("window.fallback.slack").value(), 0);
  EXPECT_EQ(registry.counter("window.relaxation_reused").value(), 0);
  EXPECT_EQ(registry.histogram("window.active_set_steps").count(),
            3 * model.num_access_networks());
  // Spans close inner-first: each window.separable (every step tries the
  // separable path) precedes its mpc.step, one level deeper.
  int nested = 0;
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    if (events[i].name != "window.separable") continue;
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (events[j].name != "mpc.step") continue;
      EXPECT_EQ(events[i].depth, events[j].depth + 1);
      ++nested;
      break;
    }
  }
  EXPECT_EQ(nested, 3);
}

}  // namespace
}  // namespace gp
