// Tests for the DSPP core: model validation, SLA pair indexing, the window
// program (feasibility, optimality structure, duals, soft slacks), and the
// request-router assignment policy of eq. (13).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "dspp/assignment.hpp"
#include "dspp/window_program.hpp"
#include "qp/admm_solver.hpp"
#include "qp/ipm_solver.hpp"
#include "pair_lookup.hpp"

namespace gp::dspp {
namespace {

using linalg::Vector;
using test_util::find_pair;

/// Two data centers, two access networks. DC0 is close to AN0 and far from
/// AN1 beyond SLA reach; DC1 reaches both.
DsppModel two_dc_model() {
  DsppModel model;
  model.network = topology::NetworkModel(
      {"dc0", "dc1"}, {"an0", "an1"},
      {{10.0, 500.0},    // dc0: an1 unreachable under a 100 ms SLA
       {20.0, 30.0}});
  model.sla.mu = 100.0;
  model.sla.max_latency_ms = 100.0;
  model.reconfig_cost = {1.0, 1.0};
  model.capacity = {1000.0, 1000.0};
  return model;
}

/// Single DC / single AN toy (the paper's Fig. 4 setting).
DsppModel single_model(double reconfig_cost = 1.0) {
  DsppModel model;
  model.network = topology::NetworkModel({"dc0"}, {"an0"}, {{10.0}});
  model.sla.mu = 100.0;
  model.sla.max_latency_ms = 60.0;
  model.reconfig_cost = {reconfig_cost};
  model.capacity = {10000.0};
  return model;
}

TEST(DsppModel, ValidateCatchesBadShapes) {
  DsppModel model = two_dc_model();
  model.reconfig_cost = {1.0};
  EXPECT_THROW(model.validate(), PreconditionError);
  model = two_dc_model();
  model.capacity = {0.0, 10.0};
  EXPECT_THROW(model.validate(), PreconditionError);
  model = two_dc_model();
  model.sla.reservation_ratio = 0.5;
  EXPECT_THROW(model.validate(), PreconditionError);
}

TEST(DsppModel, SlaCoefficientMatchesEquation10) {
  const DsppModel model = single_model();
  // budget = (60 - 10) ms = 0.05 s; a = 1 / (100 - 1/0.05) = 1/80.
  EXPECT_NEAR(model.sla_coefficient(0, 0), 1.0 / 80.0, 1e-12);
}

TEST(PairIndex, ExcludesInfeasiblePairs) {
  const DsppModel model = two_dc_model();
  const PairIndex pairs(model);
  EXPECT_EQ(pairs.num_pairs(), 3u);  // (0,0), (1,0), (1,1)
  EXPECT_TRUE(find_pair(pairs, 0, 0).has_value());
  EXPECT_FALSE(find_pair(pairs, 0, 1).has_value());
  EXPECT_TRUE(find_pair(pairs, 1, 1).has_value());
  EXPECT_EQ(pairs.pairs_of_access_network(1).size(), 1u);
  EXPECT_EQ(pairs.pairs_of_datacenter(1).size(), 2u);
}

TEST(PairIndex, ThrowsWhenAccessNetworkUnservable) {
  DsppModel model = two_dc_model();
  model.sla.max_latency_ms = 15.0;  // only dc0-an0 remains; an1 unservable
  EXPECT_THROW(PairIndex{model}, PreconditionError);
}

TEST(DsppModel, PerPairLatencyOverride) {
  DsppModel model = two_dc_model();
  const double base_a_00 = model.sla_coefficient(0, 0);
  // Tighten the (0,0) bound only: its coefficient grows, others unchanged.
  model.max_latency_override_ms = {{40.0, 0.0}, {0.0, 0.0}};
  EXPECT_NO_THROW(model.validate());
  EXPECT_DOUBLE_EQ(model.max_latency_ms_for(0, 0), 40.0);
  EXPECT_DOUBLE_EQ(model.max_latency_ms_for(1, 1), model.sla.max_latency_ms);
  EXPECT_GT(model.sla_coefficient(0, 0), base_a_00);
  EXPECT_DOUBLE_EQ(model.sla_coefficient(1, 1), two_dc_model().sla_coefficient(1, 1));
  // An override so tight that the pair becomes unusable drops it from the
  // index.
  model.max_latency_override_ms[0][0] = 10.0;  // equals the network latency
  const PairIndex pairs(model);
  EXPECT_FALSE(find_pair(pairs, 0, 0).has_value());
  // Malformed override shapes are rejected.
  model.max_latency_override_ms = {{40.0}};
  EXPECT_THROW(model.validate(), PreconditionError);
}

TEST(PairIndex, ReservationRatioScalesCoefficients) {
  DsppModel model = single_model();
  const PairIndex base(model);
  model.sla.reservation_ratio = 1.5;
  const PairIndex cushioned(model);
  EXPECT_NEAR(cushioned.coefficient(0), 1.5 * base.coefficient(0), 1e-12);
}

TEST(WindowProgram, SingleStepMatchesAnalyticOptimum) {
  // One DC, one AN, one step, price only (no reconfig cost): the optimum is
  // exactly a * D servers.
  DsppModel model = single_model(0.0);
  const PairIndex pairs(model);
  WindowInputs inputs;
  inputs.initial_state = {0.0};
  inputs.demand = {Vector{400.0}};
  inputs.price = {Vector{0.05}};
  const WindowProgram program(model, pairs, std::move(inputs));
  qp::AdmmSolver solver;
  const WindowSolution solution = program.solve(solver);
  ASSERT_TRUE(solution.ok());
  const double expected = 400.0 / 80.0;  // a * D = 5
  EXPECT_NEAR(solution.x[0][0], expected, 1e-3);
  EXPECT_NEAR(solution.objective, 0.05 * expected, 1e-4);
}

TEST(WindowProgram, ReconfigCostSmoothsTrajectory) {
  // Demand spike in the middle of the window: with a large c the allocation
  // moves less per step than with c = 0.
  auto churn_for = [&](double c) {
    DsppModel model = single_model(c);
    const PairIndex pairs(model);
    WindowInputs inputs;
    inputs.initial_state = {5.0};
    inputs.demand = {Vector{400.0}, Vector{1600.0}, Vector{400.0}};
    inputs.price = {Vector{0.05}, Vector{0.05}, Vector{0.05}};
    const WindowProgram program(model, pairs, std::move(inputs));
    qp::AdmmSolver solver;
    const WindowSolution solution = program.solve(solver);
    EXPECT_TRUE(solution.ok());
    double churn = 0.0;
    for (const auto& u : solution.u) churn += std::abs(u[0]);
    return churn;
  };
  EXPECT_LT(churn_for(10.0), churn_for(0.0));
}

TEST(WindowProgram, PriceDifferenceShiftsAllocation) {
  // Both DCs can serve AN0; the cheaper DC should carry (almost) all load.
  DsppModel model = two_dc_model();
  model.reconfig_cost = {0.0, 0.0};
  const PairIndex pairs(model);
  WindowInputs inputs;
  inputs.initial_state.assign(pairs.num_pairs(), 0.0);
  inputs.demand = {Vector{500.0, 300.0}};
  inputs.price = {Vector{0.20, 0.05}};  // dc1 is 4x cheaper
  const WindowProgram program(model, pairs, std::move(inputs));
  qp::AdmmSolver solver;
  const WindowSolution solution = program.solve(solver);
  ASSERT_TRUE(solution.ok());
  const std::size_t pair_00 = *find_pair(pairs, 0, 0);
  const std::size_t pair_10 = *find_pair(pairs, 1, 0);
  EXPECT_LT(solution.x[0][pair_00], 0.05 * solution.x[0][pair_10]);
}

TEST(WindowProgram, CapacityBindsAndDualIsPositive) {
  DsppModel model = single_model(0.0);
  model.capacity = {4.0};  // need a*D = 5 > 4: infeasible hard...
  const PairIndex pairs(model);
  // ... so use soft demand to observe the binding capacity and its dual.
  WindowInputs inputs;
  inputs.initial_state = {0.0};
  inputs.demand = {Vector{400.0}};
  inputs.price = {Vector{0.05}};
  inputs.soft_demand_penalty = 10.0;
  const WindowProgram program(model, pairs, std::move(inputs));
  qp::AdmmSolver solver;
  const WindowSolution solution = program.solve(solver);
  ASSERT_TRUE(solution.ok());
  EXPECT_NEAR(solution.x[0][0], 4.0, 1e-3);              // pinned at capacity
  EXPECT_GT(solution.unserved[0][0], 0.0);               // some demand dropped
  EXPECT_GT(solution.capacity_duals[0][0], 1e-4);        // binding => positive price
  EXPECT_GT(solution.capacity_price()[0], 1e-4);
}

TEST(WindowProgram, HardInfeasibleQuotaReportsInfeasible) {
  DsppModel model = single_model(0.0);
  model.capacity = {4.0};
  const PairIndex pairs(model);
  WindowInputs inputs;
  inputs.initial_state = {0.0};
  inputs.demand = {Vector{400.0}};  // needs 5 servers
  inputs.price = {Vector{0.05}};
  const WindowProgram program(model, pairs, std::move(inputs));
  qp::AdmmSolver solver;
  const WindowSolution solution = program.solve(solver);
  EXPECT_EQ(solution.status, qp::SolveStatus::kPrimalInfeasible);
}

TEST(WindowProgram, StateEquationHoldsAcrossWindow) {
  DsppModel model = single_model(2.0);
  const PairIndex pairs(model);
  WindowInputs inputs;
  inputs.initial_state = {3.0};
  inputs.demand = {Vector{200.0}, Vector{300.0}, Vector{250.0}, Vector{100.0}};
  inputs.price = {Vector{0.05}, Vector{0.06}, Vector{0.04}, Vector{0.05}};
  const WindowProgram program(model, pairs, inputs);
  qp::AdmmSolver solver;
  const WindowSolution solution = program.solve(solver);
  ASSERT_TRUE(solution.ok());
  double x_prev = 3.0;
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_NEAR(solution.x[t][0], x_prev + solution.u[t][0], 2e-3);
    x_prev = solution.x[t][0];
    // Demand constraint: x / a >= D.
    EXPECT_GE(solution.x[t][0] / pairs.coefficient(0), inputs.demand[t][0] - 0.5);
  }
}

TEST(WindowProgram, AdmmAndIpmAgreeOnWindow) {
  DsppModel model = two_dc_model();
  const PairIndex pairs(model);
  WindowInputs inputs;
  inputs.initial_state.assign(pairs.num_pairs(), 2.0);
  inputs.demand = {Vector{300.0, 200.0}, Vector{500.0, 350.0}, Vector{200.0, 100.0}};
  inputs.price = {Vector{0.05, 0.08}, Vector{0.07, 0.05}, Vector{0.06, 0.06}};
  const WindowProgram program(model, pairs, inputs);
  qp::AdmmSolver admm;
  qp::IpmSolver ipm;
  const WindowSolution sa = program.solve(admm);
  const WindowSolution si = program.solve(ipm);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(si.ok());
  EXPECT_NEAR(sa.objective, si.objective, 1e-3 * (1.0 + std::abs(si.objective)));
  for (std::size_t t = 0; t < 3; ++t) {
    for (std::size_t p = 0; p < pairs.num_pairs(); ++p) {
      EXPECT_NEAR(sa.x[t][p], si.x[t][p], 2e-2) << "t=" << t << " p=" << p;
    }
  }
}

TEST(WindowProgram, ValidatesInputShapes) {
  DsppModel model = single_model();
  const PairIndex pairs(model);
  WindowInputs inputs;
  inputs.initial_state = {0.0};
  inputs.demand = {Vector{1.0}};
  inputs.price = {};  // horizon mismatch
  EXPECT_THROW(WindowProgram(model, pairs, inputs), PreconditionError);
  inputs.price = {Vector{0.05}};
  inputs.demand = {Vector{-1.0}};  // negative demand
  EXPECT_THROW(WindowProgram(model, pairs, inputs), PreconditionError);
  inputs.demand = {Vector{1.0}};
  inputs.initial_state = {0.0, 0.0};  // wrong state size
  EXPECT_THROW(WindowProgram(model, pairs, inputs), PreconditionError);
}

TEST(Assignment, SplitsProportionallyToXOverA) {
  const DsppModel model = two_dc_model();
  const PairIndex pairs(model);
  Vector allocation(pairs.num_pairs(), 0.0);
  const std::size_t p00 = *find_pair(pairs, 0, 0);
  const std::size_t p10 = *find_pair(pairs, 1, 0);
  const std::size_t p11 = *find_pair(pairs, 1, 1);
  allocation[p00] = 6.0;
  allocation[p10] = 3.0;
  allocation[p11] = 2.0;
  const Vector demand{900.0, 100.0};
  const Assignment assignment = assign_demand(pairs, allocation, demand);
  // Weights: x/a; shares must sum to demand.
  EXPECT_NEAR(assignment.rate[p00] + assignment.rate[p10], 900.0, 1e-9);
  EXPECT_NEAR(assignment.rate[p11], 100.0, 1e-9);
  const double w00 = 6.0 / pairs.coefficient(p00);
  const double w10 = 3.0 / pairs.coefficient(p10);
  EXPECT_NEAR(assignment.rate[p00], 900.0 * w00 / (w00 + w10), 1e-9);
  EXPECT_DOUBLE_EQ(assignment.total_unserved(), 0.0);
}

TEST(Assignment, ZeroAllocationIsUnserved) {
  const DsppModel model = two_dc_model();
  const PairIndex pairs(model);
  const Vector allocation(pairs.num_pairs(), 0.0);
  const Assignment assignment = assign_demand(pairs, allocation, Vector{50.0, 70.0});
  EXPECT_DOUBLE_EQ(assignment.unserved_at(0), 50.0);
  EXPECT_DOUBLE_EQ(assignment.unserved_at(1), 70.0);
  EXPECT_DOUBLE_EQ(assignment.total_unserved(), 120.0);
  ASSERT_EQ(assignment.unserved.size(), 2u);
}

TEST(Assignment, SparseUnservedMixedNetworks) {
  // One network with capacity, one without: the sparse unserved list holds
  // exactly the starved network and the lookups stay consistent.
  const DsppModel model = two_dc_model();
  const PairIndex pairs(model);
  Vector allocation(pairs.num_pairs(), 0.0);
  allocation[*find_pair(pairs, 1, 1)] = 2.0;  // AN1 served, AN0 starved
  const Assignment assignment = assign_demand(pairs, allocation, Vector{50.0, 70.0});
  ASSERT_EQ(assignment.unserved.size(), 1u);
  EXPECT_EQ(assignment.unserved.front().first, 0u);
  EXPECT_DOUBLE_EQ(assignment.unserved_at(0), 50.0);
  EXPECT_DOUBLE_EQ(assignment.unserved_at(1), 0.0);
  EXPECT_DOUBLE_EQ(assignment.total_unserved(), 50.0);
  // The unserved demand counts against compliance in the SLA report.
  const SlaReport report = evaluate_sla(model, pairs, allocation, assignment);
  EXPECT_DOUBLE_EQ(report.total_rate, 120.0);
  EXPECT_GE(report.violating_rate, 50.0);
}

TEST(Assignment, SlaMetWhenConstraint12Holds) {
  // Allocate exactly the minimum required by eq. (12); every pair's mean
  // latency must sit at or below the SLA bound (property behind eq. (13)).
  const DsppModel model = two_dc_model();
  const PairIndex pairs(model);
  const Vector demand{800.0, 400.0};
  Vector allocation(pairs.num_pairs(), 0.0);
  // Serve AN0 from both DCs (half each), AN1 from DC1.
  const std::size_t p00 = *find_pair(pairs, 0, 0);
  const std::size_t p10 = *find_pair(pairs, 1, 0);
  const std::size_t p11 = *find_pair(pairs, 1, 1);
  allocation[p00] = pairs.coefficient(p00) * 400.0;
  allocation[p10] = pairs.coefficient(p10) * 400.0;
  allocation[p11] = pairs.coefficient(p11) * 400.0;
  const Assignment assignment = assign_demand(pairs, allocation, demand);
  const SlaReport report = evaluate_sla(model, pairs, allocation, assignment);
  EXPECT_LE(report.worst_latency_ms, model.sla.max_latency_ms + 1e-6);
  EXPECT_DOUBLE_EQ(report.violating_rate, 0.0);
  EXPECT_DOUBLE_EQ(report.compliance(), 1.0);
  EXPECT_EQ(report.overloaded_pairs, 0u);
  EXPECT_NEAR(report.total_rate, 1200.0, 1e-9);
}

TEST(Assignment, OverloadDetectedAsViolation) {
  const DsppModel model = single_model();
  const PairIndex pairs(model);
  // 1 server for 200 req/s at mu = 100: unstable.
  const Vector allocation{1.0};
  const Assignment assignment = assign_demand(pairs, allocation, Vector{200.0});
  const SlaReport report = evaluate_sla(model, pairs, allocation, assignment);
  EXPECT_EQ(report.overloaded_pairs, 1u);
  EXPECT_DOUBLE_EQ(report.violating_rate, 200.0);
  EXPECT_EQ(report.compliance(), 0.0);
}

TEST(Assignment, PercentileSlaIsStricter) {
  DsppModel mean_model = single_model();
  DsppModel p95_model = mean_model;
  p95_model.sla.percentile = 0.95;
  const PairIndex pairs(mean_model);
  // Allocation sized for the MEAN SLA only.
  const Vector demand{400.0};
  Vector allocation{pairs.coefficient(0) * 400.0};
  const Assignment assignment = assign_demand(pairs, allocation, demand);
  const SlaReport mean_report = evaluate_sla(mean_model, pairs, allocation, assignment);
  const SlaReport p95_report = evaluate_sla(p95_model, pairs, allocation, assignment);
  EXPECT_DOUBLE_EQ(mean_report.violating_rate, 0.0);
  EXPECT_GT(p95_report.violating_rate, 0.0);  // same allocation misses the p95 bound
}

}  // namespace
}  // namespace gp::dspp
