// Tests for trace CSV import/export and the threshold-autoscaler baseline.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "control/autoscaler.hpp"
#include "sim/engine.hpp"
#include "workload/trace_io.hpp"
#include "pair_lookup.hpp"

namespace gp {
namespace {

using linalg::Vector;
using test_util::find_pair;

// --- trace_io ---

TEST(TraceIo, RoundTripsLosslessly) {
  workload::Trace trace;
  trace.columns = {"hour", "nyc", "la"};
  trace.values = {{0.0, 123.456, 1e-7}, {1.0, 0.1 + 0.2, 98765.4321}};
  std::ostringstream out;
  workload::save_trace_csv(trace, out);
  std::istringstream in(out.str());
  const auto loaded = workload::load_trace_csv(in);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_EQ(loaded.trace.columns, trace.columns);
  ASSERT_EQ(loaded.trace.periods(), 2u);
  for (std::size_t t = 0; t < 2; ++t) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(loaded.trace.values[t][c], trace.values[t][c]);
    }
  }
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::istringstream in("# a demand trace\nh,v\n\n# midway comment\n1,2\n");
  const auto loaded = workload::load_trace_csv(in);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.trace.periods(), 1u);
  EXPECT_DOUBLE_EQ(loaded.trace.values[0][1], 2.0);
}

TEST(TraceIo, ReportsMalformedInput) {
  {
    std::istringstream in("h,v\n1\n");  // wrong width
    const auto r = workload::load_trace_csv(in);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("line 2"), std::string::npos);
  }
  {
    std::istringstream in("h,v\n1,abc\n");  // non-numeric
    EXPECT_FALSE(workload::load_trace_csv(in).ok);
  }
  {
    std::istringstream in("h,,v\n");  // empty column name
    EXPECT_FALSE(workload::load_trace_csv(in).ok);
  }
  {
    std::istringstream in("");
    const auto r = workload::load_trace_csv(in);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "no header row");
  }
}

TEST(TraceIo, RejectsNonFiniteCells) {
  // std::from_chars parses "inf" and "nan"; a trace cell holding one must
  // fail at load time, naming its line, not deep inside the solver.
  for (const char* cell : {"inf", "-inf", "nan", " INF"}) {
    std::istringstream in(std::string("h,v\n0,1\n1,") + cell + "\n");
    const auto r = workload::load_trace_csv(in);
    EXPECT_FALSE(r.ok) << cell;
    EXPECT_NE(r.error.find("line 3"), std::string::npos) << r.error;
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(workload::DemandModel::from_trace({{1.0, inf}}, 1.0), PreconditionError);
  EXPECT_THROW(workload::DemandModel::from_trace({{nan}}, 1.0), PreconditionError);
  EXPECT_THROW(workload::ServerPriceModel::from_trace(topology::default_datacenter_sites(1),
                                                      workload::VmType::kMedium, {{inf}}, 1.0),
               PreconditionError);
}

TEST(TraceIo, SaveValidatesShape) {
  workload::Trace ragged;
  ragged.columns = {"a", "b"};
  ragged.values = {{1.0}};
  std::ostringstream out;
  EXPECT_THROW(workload::save_trace_csv(ragged, out), PreconditionError);
  workload::Trace bad_name;
  bad_name.columns = {"a,b"};
  EXPECT_THROW(workload::save_trace_csv(bad_name, out), PreconditionError);
}

TEST(TraceIo, ReadsSimulationCsvOutput) {
  // The engine's CSV must parse as a trace (the promised round-trip).
  dspp::DsppModel model;
  model.network = topology::NetworkModel({"dc0"}, {"an0"}, {{10.0}});
  model.sla.mu = 100.0;
  model.sla.max_latency_ms = 60.0;
  model.reconfig_cost = {0.01};
  model.capacity = {1000.0};
  sim::SimulationConfig config;
  config.periods = 4;
  const auto demand = workload::DemandModel({{100.0, 0, workload::DiurnalProfile()}});
  const workload::ServerPriceModel prices(topology::default_datacenter_sites(1),
                                          workload::VmType::kMedium,
                                          workload::ElectricityPriceModel());
  sim::SimulationEngine engine(model, demand, prices, config);
  control::ReactiveController reactive(model);
  const auto summary = engine.run(sim::policy_from(reactive));
  std::ostringstream out;
  summary.write_csv(out);
  std::istringstream in(out.str());
  const auto loaded = workload::load_trace_csv(in);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.trace.periods(), 4u);
}

// --- autoscaler ---

dspp::DsppModel autoscaler_model() {
  dspp::DsppModel model;
  model.network = topology::NetworkModel({"dc0", "dc1"}, {"an0"}, {{10.0}, {20.0}});
  model.sla.mu = 100.0;
  model.sla.max_latency_ms = 100.0;
  model.reconfig_cost = {0.0, 0.0};
  model.capacity = {100.0, 100.0};
  return model;
}

TEST(Autoscaler, ScalesOutUnderHighUtilization) {
  control::ThresholdAutoscaler scaler(autoscaler_model());
  const auto& pairs = scaler.pairs();
  Vector state(pairs.num_pairs(), 0.0);
  state[0] = 2.0;  // 2 servers at dc0
  // 190 req/s over 2 servers at mu=100: utilization 0.95 > 0.8.
  const auto result = scaler.step(state, {190.0}, {0.05, 0.05});
  EXPECT_GT(result.next_state[0], 2.0);
  EXPECT_NEAR(result.next_state[0], 3.0, 1e-9);  // 1.5x step
}

TEST(Autoscaler, ScalesInUnderLowUtilization) {
  control::ThresholdAutoscaler scaler(autoscaler_model());
  Vector state(scaler.pairs().num_pairs(), 0.0);
  state[0] = 10.0;
  // 100 req/s over 10 servers: utilization 0.1 < 0.4.
  const auto result = scaler.step(state, {100.0}, {0.05, 0.05});
  EXPECT_LT(result.next_state[0], 10.0);
  EXPECT_NEAR(result.next_state[0], 8.0, 1e-9);  // 0.8x step
}

TEST(Autoscaler, HoldsInsideTheDeadband) {
  control::ThresholdAutoscaler scaler(autoscaler_model());
  Vector state(scaler.pairs().num_pairs(), 0.0);
  state[0] = 10.0;
  // 600 req/s over 10 servers: utilization 0.6 inside [0.4, 0.8].
  const auto result = scaler.step(state, {600.0}, {0.05, 0.05});
  EXPECT_DOUBLE_EQ(result.next_state[0], 10.0);
  EXPECT_DOUBLE_EQ(result.control[0], 0.0);
}

TEST(Autoscaler, BootstrapsColdAccessNetwork) {
  control::ThresholdAutoscaler scaler(autoscaler_model());
  const Vector state(scaler.pairs().num_pairs(), 0.0);
  const auto result = scaler.step(state, {300.0}, {0.09, 0.04});
  // Bootstrapped at the CHEAPER dc1 pair with ~a*D servers.
  const auto& pairs = scaler.pairs();
  const std::size_t p1 = *find_pair(pairs, 1, 0);
  const double bootstrap = pairs.coefficient(p1) * 300.0;
  // The threshold loop may already scale the fresh bootstrap out once
  // (utilization at the SLA-minimal allocation sits above the watermark).
  EXPECT_GE(result.next_state[p1], bootstrap - 1e-9);
  EXPECT_LE(result.next_state[p1], bootstrap * 1.5 + 1e-9);
}

TEST(Autoscaler, CooldownBlocksBackToBackActions) {
  control::AutoscalerSettings settings;
  settings.cooldown_periods = 2;
  control::ThresholdAutoscaler scaler(autoscaler_model(), settings);
  Vector state(scaler.pairs().num_pairs(), 0.0);
  state[0] = 2.0;
  auto first = scaler.step(state, {190.0}, {0.05, 0.05});
  EXPECT_GT(first.next_state[0], 2.0);
  // Still hot, but cooling down: no further action for 2 periods.
  auto second = scaler.step(first.next_state, {290.0}, {0.05, 0.05});
  EXPECT_DOUBLE_EQ(second.next_state[0], first.next_state[0]);
}

TEST(Autoscaler, RespectsCapacity) {
  auto model = autoscaler_model();
  model.capacity = {4.0, 100.0};
  control::ThresholdAutoscaler scaler(model);
  Vector state(scaler.pairs().num_pairs(), 0.0);
  state[0] = 3.9;
  const auto result = scaler.step(state, {390.0 * 0.99}, {0.05, 0.05});
  EXPECT_LE(result.next_state[0], 4.0 + 1e-9);
}

TEST(Autoscaler, ValidatesSettings) {
  control::AutoscalerSettings bad;
  bad.high_utilization = 0.3;  // below low watermark
  EXPECT_THROW(control::ThresholdAutoscaler(autoscaler_model(), bad), PreconditionError);
  bad = {};
  bad.scale_in_factor = 1.2;
  EXPECT_THROW(control::ThresholdAutoscaler(autoscaler_model(), bad), PreconditionError);
}

TEST(Autoscaler, RunsInsideSimulationEngine) {
  auto model = autoscaler_model();
  const auto demand = workload::DemandModel({{400.0, -5, workload::DiurnalProfile()}});
  const workload::ServerPriceModel prices(topology::default_datacenter_sites(2),
                                          workload::VmType::kMedium,
                                          workload::ElectricityPriceModel());
  sim::SimulationConfig config;
  config.periods = 24;
  config.noisy_demand = true;
  control::ThresholdAutoscaler scaler(model);
  sim::SimulationEngine engine(model, demand, prices, config);
  const auto summary = engine.run(sim::policy_from(scaler));
  EXPECT_EQ(summary.periods.size(), 24u);
  EXPECT_GT(summary.total_cost, 0.0);
  EXPECT_GT(summary.mean_compliance, 0.3);  // crude but functional
}

}  // namespace
}  // namespace gp
