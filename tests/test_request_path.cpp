// Tests for the batched request path (sim/request_path.hpp): closed-form
// validation of the count-first NHPP batches across a utilization grid,
// the lane-sharding determinism contract (bit-identical per-pair statistics
// at any lane count and on every SIMD tier), the drift oracle bounding the
// vectorised draws against a replay through Rng::exponential, exactness of
// the legacy wrappers against verbatim copies of the pre-batched
// implementations, per-pair substream independence, and the
// engine-attached simulate_day loop.
#include <gtest/gtest.h>

#include <cmath>
#include <queue>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "linalg/simd_dispatch.hpp"
#include "obs/timeline.hpp"
#include "queueing/mm1.hpp"
#include "queueing/mmc.hpp"
#include "scenario/request_day.hpp"
#include "scenario/spec.hpp"
#include "sim/request_path.hpp"
#include "sim/request_sim.hpp"
#include "workload/demand.hpp"
#include "pair_lookup.hpp"

namespace gp::sim {
namespace {

using linalg::Vector;
using test_util::find_pair;

/// One data center, one access network, zero network latency, loose bound:
/// the simulated pair is a textbook split-M/M/1 group.
dspp::DsppModel single_pair_model(double mu) {
  dspp::DsppModel model;
  model.network = topology::NetworkModel({"dc0"}, {"an0"}, {{0.0}});
  model.sla.mu = mu;
  model.sla.max_latency_ms = 1000.0;
  model.reconfig_cost = {0.0};
  model.capacity = {10000.0};
  return model;
}

TEST(RequestPath, MatchesMm1ClosedFormAcrossUtilizationGrid) {
  // Per-server utilizations from relaxed to near-critical: empirical mean
  // and p95 of the batched NHPP simulation must track the M/M/1 closed
  // forms (mean = 1/(mu - lambda), p95 = ln(20) * mean — the paper's
  // Section IV-B percentile device).
  const double mu = 100.0;
  const int servers = 2;
  const dspp::DsppModel model = single_pair_model(mu);
  const dspp::PairIndex pairs(model);
  for (const double rho : {0.3, 0.5, 0.7, 0.85, 0.95}) {
    const double lambda = rho * mu * servers;
    const Vector demand{lambda};
    const Vector allocation{static_cast<double>(servers)};
    const auto assignment = dspp::assign_demand(pairs, allocation, demand);
    RequestSimOptions options;
    options.duration_s = 3000.0;
    options.seed = 17;
    const auto report = simulate_requests(model, pairs, allocation, assignment, options);
    ASSERT_GT(report.pairs[0].requests, 100000u) << "rho=" << rho;
    const double analytic_ms = 1000.0 * queueing::mean_response_time(mu, rho * mu);
    EXPECT_NEAR(report.pairs[0].mean_ms, analytic_ms, 0.08 * analytic_ms) << "rho=" << rho;
    const double analytic_p95_ms = queueing::percentile_factor(0.95) * analytic_ms;
    EXPECT_NEAR(report.pairs[0].p95_ms, analytic_p95_ms, 0.10 * analytic_p95_ms)
        << "rho=" << rho;
    EXPECT_NEAR(report.pairs[0].utilization, rho, 0.02) << "rho=" << rho;
  }
}

TEST(RequestPath, PooledWrapperMatchesErlangCAcrossUtilizationGrid) {
  // The M/M/c closed form across the same grid, through the wrapped pooled
  // simulator (which exercises the shared heap kernel).
  const double mu = 25.0;
  const int servers = 4;
  for (const double rho : {0.3, 0.6, 0.8, 0.95}) {
    const double lambda = rho * mu * servers;
    Rng rng(23);
    // Mixing slows as 1/(1-rho)^2 near criticality: give the hot points a
    // longer window so the estimate converges at the same tolerance.
    const double duration_s = rho >= 0.9 ? 12000.0 : 3000.0;
    const auto result = simulate_pooled_mmc(lambda, mu, servers, duration_s, rng);
    ASSERT_GT(result.completed, 50000u) << "rho=" << rho;
    const double analytic = queueing::mmc_mean_response_time(servers, lambda, mu);
    EXPECT_NEAR(result.mean_response, analytic, 0.08 * analytic) << "rho=" << rho;
  }
}

/// A small Section VII deployment with every pair loaded: the fixture of the
/// lane/tier determinism test and the drift oracle.
struct LoadedDeployment {
  gp::scenario::ScenarioBundle bundle;
  dspp::PairIndex pairs;
  Vector allocation;
  dspp::Assignment assignment;

  LoadedDeployment()
      : bundle(gp::scenario::build(gp::scenario::section7_spec(3, 8))), pairs(bundle.model) {
    const Vector demand(bundle.demand.mean_rates(12.0));
    allocation.assign(pairs.num_pairs(), 0.0);
    for (std::size_t v = 0; v < pairs.num_access_networks(); ++v) {
      for (std::size_t p : pairs.pairs_of_access_network(v)) {
        allocation[p] = std::ceil(pairs.coefficient(p) * demand[v] / 2.0 + 1.0);
      }
    }
    assignment = dspp::assign_demand(pairs, allocation, demand);
  }
};

/// Restores the SIMD tier active at construction.
struct TierGuard {
  linalg::simd::Tier saved = linalg::simd::active_tier();
  ~TierGuard() { linalg::simd::set_active_tier(saved); }
};

TEST(RequestPath, BitIdenticalAtAnyLaneCount) {
  // The SweepRunner determinism contract, at the request level: per-pair
  // statistics must be EXACTLY equal (every double, every count) whether
  // the pairs are simulated on 1, 3 or 8 lanes, on any SIMD tier.
  namespace simd = linalg::simd;
  TierGuard guard;
  const LoadedDeployment d;
  auto run_at = [&](std::size_t lanes) {
    RequestSimOptions options;
    options.duration_s = 30.0;
    options.seed = 5;
    options.max_lanes = lanes;
    return simulate_requests(d.bundle.model, d.pairs, d.allocation, d.assignment, options);
  };
  ASSERT_EQ(simd::set_active_tier(simd::Tier::kScalar), simd::Tier::kScalar);
  const auto base = run_at(1);
  ASSERT_GT(base.simulated_requests, 1000u);
  for (const simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (!simd::tier_available(tier)) continue;
    ASSERT_EQ(simd::set_active_tier(tier), tier);
    for (const std::size_t lanes : {1u, 3u, 8u}) {
      SCOPED_TRACE(std::string("tier=") + simd::tier_name(tier) +
                   " lanes=" + std::to_string(lanes));
      const auto other = run_at(lanes);
      ASSERT_EQ(other.pairs.size(), base.pairs.size());
      for (std::size_t p = 0; p < base.pairs.size(); ++p) {
        EXPECT_EQ(base.pairs[p].requests, other.pairs[p].requests) << "pair " << p;
        EXPECT_EQ(base.pairs[p].violations, other.pairs[p].violations) << "pair " << p;
        EXPECT_EQ(base.pairs[p].mean_ms, other.pairs[p].mean_ms) << "pair " << p;
        EXPECT_EQ(base.pairs[p].p95_ms, other.pairs[p].p95_ms) << "pair " << p;
        EXPECT_EQ(base.pairs[p].utilization, other.pairs[p].utilization) << "pair " << p;
        EXPECT_EQ(base.pairs[p].unstable, other.pairs[p].unstable) << "pair " << p;
      }
      EXPECT_EQ(base.simulated_requests, other.simulated_requests);
      EXPECT_EQ(base.mean_latency_ms, other.mean_latency_ms);
      EXPECT_EQ(base.worst_pair_p95_ms, other.worst_pair_p95_ms);
      EXPECT_EQ(base.violating_fraction, other.violating_fraction);
    }
  }
}

// ------------------------------------------------------------------------
// Drift oracle: the per-pair replay drawing through Rng::exponential, one
// draw at a time — simulate_pair step for step (count-first batches,
// conditional spacings, exact warm-up skip) before its draws were
// vectorised. Every pair here stays below the 2^20-request batch cap, so
// only the conditional-spacing regime is mirrored.

PairLatencyStats reference_pair(const dspp::DsppModel& model, const dspp::PairIndex& pairs,
                                const obs::LogBucketLayout& layout, std::size_t p,
                                double rate, int servers, const RequestSimOptions& options) {
  PairLatencyStats stats;
  stats.pair = p;
  const std::size_t l = pairs.datacenter_of(p);
  const std::size_t v = pairs.access_network_of(p);
  const double mu = model.sla.mu;
  const double per_server = rate / static_cast<double>(servers);
  if (per_server >= mu) {
    stats.unstable = true;
    stats.requests = static_cast<std::size_t>(rate * options.duration_s);
    stats.violations = stats.requests;
    stats.utilization = 1.0;
    return stats;
  }
  const double network_ms = model.network.latency_ms(l, v);
  const double queue_budget_ms = model.max_latency_ms_for(l, v) - network_ms;
  LatencySketch sketch(layout);
  Rng rng(substream_seed(options.seed, p));
  std::size_t violations = 0;
  double busy_time = 0.0;
  for (int s = 0; s < servers; ++s) {
    const auto n = static_cast<std::size_t>(
        workload::sample_poisson_count(per_server * options.duration_s, rng));
    if (n == 0) continue;
    EXPECT_LE(n, std::size_t{1} << 20) << "pair " << p << " left the oracle's regime";
    std::size_t remaining_skip =
        static_cast<std::size_t>(options.warmup_fraction * static_cast<double>(n));
    std::vector<double> gaps(n + 1);
    double sum = 0.0;
    for (double& gap : gaps) {
      gap = rng.exponential(1.0);
      sum += gap;
    }
    const double scale = options.duration_s / sum;
    for (double& gap : gaps) gap *= scale;
    std::vector<double> services(n);
    for (double& service : services) service = rng.exponential(mu);
    lindley_kernel(services, std::span<const double>(gaps).subspan(1), 0.0,
                   [&](double response_s, double service_s) {
                     busy_time += service_s;
                     if (remaining_skip > 0) {
                       --remaining_skip;
                       return;
                     }
                     const double queue_ms = response_s * 1000.0;
                     sketch.record(network_ms + queue_ms);
                     if (queue_ms > queue_budget_ms) ++violations;
                   });
  }
  stats.requests = static_cast<std::size_t>(sketch.count());
  stats.violations = violations;
  stats.mean_ms = sketch.mean();
  stats.p95_ms = sketch.percentile(95.0);
  stats.utilization = busy_time / (static_cast<double>(servers) * options.duration_s);
  return stats;
}

/// The drift bound of request_path.hpp, pair by pair.
void expect_within_drift(const PairLatencyStats& got, const PairLatencyStats& ref) {
  SCOPED_TRACE("pair " + std::to_string(ref.pair));
  EXPECT_EQ(got.requests, ref.requests);
  EXPECT_EQ(got.unstable, ref.unstable);
  EXPECT_LE(std::abs(got.mean_ms - ref.mean_ms), 1e-12 * std::abs(ref.mean_ms));
  EXPECT_LE(std::abs(got.utilization - ref.utilization), 1e-12 * std::abs(ref.utilization));
  const double violation_gap = std::abs(static_cast<double>(got.violations) -
                                        static_cast<double>(ref.violations));
  EXPECT_LE(violation_gap * 1e5, static_cast<double>(ref.requests));
  const double bucket_ratio = std::pow(10.0, 1.0 / kLatencySketch.buckets_per_decade);
  EXPECT_LE(got.p95_ms, ref.p95_ms * bucket_ratio);
  EXPECT_GE(got.p95_ms, ref.p95_ms / bucket_ratio);
}

TEST(RequestPath, VectorisedDrawsStayWithinDriftOfExactDraws) {
  TierGuard guard;
  const LoadedDeployment d;
  RequestSimOptions options;
  options.duration_s = 200.0;
  options.seed = 31;
  const obs::LogBucketLayout layout(kLatencySketch);
  const auto report =
      simulate_requests(d.bundle.model, d.pairs, d.allocation, d.assignment, options);
  std::size_t checked = 0;
  for (std::size_t p = 0; p < d.pairs.num_pairs(); ++p) {
    const double rate = d.assignment.rate[p];
    const auto servers = static_cast<int>(std::ceil(d.allocation[p] - 1e-9));
    if (rate <= 0.0 || servers < 1) {
      EXPECT_EQ(report.pairs[p].requests, 0u);
      continue;
    }
    expect_within_drift(report.pairs[p], reference_pair(d.bundle.model, d.pairs, layout, p,
                                                        rate, servers, options));
    ++checked;
  }
  EXPECT_GT(checked, 3u);

  // A hot single pair (per-server utilization 0.95, long busy periods, so
  // per-draw differences compound the most through the Lindley recursion).
  const dspp::DsppModel model = single_pair_model(100.0);
  const dspp::PairIndex pairs(model);
  const Vector allocation{2.0};
  const auto assignment = dspp::assign_demand(pairs, allocation, Vector{190.0});
  options.duration_s = 3000.0;
  const auto hot = simulate_requests(model, pairs, allocation, assignment, options);
  ASSERT_GT(hot.pairs[0].requests, 100000u);
  expect_within_drift(hot.pairs[0],
                      reference_pair(model, pairs, layout, 0, assignment.rate[0], 2, options));
}

TEST(RequestPath, PairSubstreamsAreIndependent) {
  // Pair statistics depend only on (seed, pair index, its own load): a
  // change to one access network's demand must leave every other pair's
  // statistics EXACTLY unchanged — the property the splitmix64 substreams
  // buy over a single shared generator.
  dspp::DsppModel model;
  model.network = topology::NetworkModel({"dc0"}, {"an0", "an1"}, {{5.0, 7.0}});
  model.sla.mu = 100.0;
  model.sla.max_latency_ms = 200.0;
  model.reconfig_cost = {0.0};
  model.capacity = {10000.0};
  const dspp::PairIndex pairs(model);
  ASSERT_EQ(pairs.num_pairs(), 2u);

  auto run_with = [&](double rate1) {
    const Vector demand{150.0, rate1};
    const Vector allocation{3.0, 4.0};
    const auto assignment = dspp::assign_demand(pairs, allocation, demand);
    RequestSimOptions options;
    options.duration_s = 60.0;
    options.seed = 11;
    return simulate_requests(model, pairs, allocation, assignment, options);
  };
  const auto a = run_with(80.0);
  const auto b = run_with(240.0);
  const std::size_t p0 = *find_pair(pairs, 0, 0);
  ASSERT_GT(a.pairs[p0].requests, 1000u);
  EXPECT_EQ(a.pairs[p0].requests, b.pairs[p0].requests);
  EXPECT_EQ(a.pairs[p0].violations, b.pairs[p0].violations);
  EXPECT_EQ(a.pairs[p0].mean_ms, b.pairs[p0].mean_ms);
  EXPECT_EQ(a.pairs[p0].p95_ms, b.pairs[p0].p95_ms);
  EXPECT_EQ(a.pairs[p0].utilization, b.pairs[p0].utilization);
  // ...while the changed pair did change.
  const std::size_t p1 = *find_pair(pairs, 0, 1);
  EXPECT_NE(a.pairs[p1].requests, b.pairs[p1].requests);
}

// ------------------------------------------------------------------------
// Wrapper exactness: verbatim copies of the PRE-BATCHED implementations
// (interleaved draw per event, retroactive warm-up trim). The wrapped entry
// points draw through Rng::exponential and must reproduce them bit for bit.

QueueSimResult legacy_summarize(std::vector<double>& responses, double busy_time, int servers,
                                double duration_s, double warmup_fraction) {
  QueueSimResult result;
  const auto skip =
      static_cast<std::size_t>(warmup_fraction * static_cast<double>(responses.size()));
  if (responses.size() <= skip) return result;
  std::vector<double> measured(responses.begin() + static_cast<std::ptrdiff_t>(skip),
                               responses.end());
  result.completed = measured.size();
  result.mean_response = mean(measured);
  result.p95_response = percentile(measured, 95.0);
  result.utilization = busy_time / (static_cast<double>(servers) * duration_s);
  return result;
}

QueueSimResult legacy_split_mm1(double lambda, double mu, int servers, double duration_s,
                                Rng& rng, double warmup_fraction) {
  const double per_server_rate = lambda / static_cast<double>(servers);
  std::vector<double> responses;
  double busy_time = 0.0;
  for (int s = 0; s < servers; ++s) {
    if (per_server_rate <= 0.0) break;
    double t = rng.exponential(per_server_rate);
    double wait = 0.0;
    while (t < duration_s) {
      const double service = rng.exponential(mu);
      responses.push_back(wait + service);
      busy_time += service;
      const double gap = rng.exponential(per_server_rate);
      wait = std::max(0.0, wait + service - gap);
      t += gap;
    }
  }
  return legacy_summarize(responses, busy_time, servers, duration_s, warmup_fraction);
}

QueueSimResult legacy_pooled_mmc(double lambda, double mu, int servers, double duration_s,
                                 Rng& rng, double warmup_fraction) {
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int s = 0; s < servers; ++s) free_at.push(0.0);
  std::vector<double> responses;
  double busy_time = 0.0;
  double t = lambda > 0.0 ? rng.exponential(lambda) : duration_s;
  while (t < duration_s) {
    const double earliest = free_at.top();
    free_at.pop();
    const double start = std::max(t, earliest);
    const double service = rng.exponential(mu);
    free_at.push(start + service);
    responses.push_back(start - t + service);
    busy_time += service;
    t += rng.exponential(lambda);
  }
  return legacy_summarize(responses, busy_time, servers, duration_s, warmup_fraction);
}

TEST(RequestPath, SplitWrapperIsBitIdenticalToLegacy) {
  for (const std::uint64_t seed : {1u, 7u, 1234u}) {
    Rng legacy_rng(seed);
    Rng wrapped_rng(seed);
    const auto expected = legacy_split_mm1(140.0, 50.0, 4, 500.0, legacy_rng, 0.1);
    const auto actual = simulate_split_mm1(140.0, 50.0, 4, 500.0, wrapped_rng, 0.1);
    EXPECT_EQ(actual.completed, expected.completed);
    EXPECT_EQ(actual.mean_response, expected.mean_response);
    EXPECT_EQ(actual.p95_response, expected.p95_response);
    EXPECT_EQ(actual.utilization, expected.utilization);
    // The wrapper consumed exactly the same number of draws.
    EXPECT_EQ(wrapped_rng(), legacy_rng());
  }
}

TEST(RequestPath, PooledWrapperIsBitIdenticalToLegacy) {
  for (const std::uint64_t seed : {2u, 9u, 4321u}) {
    Rng legacy_rng(seed);
    Rng wrapped_rng(seed);
    const auto expected = legacy_pooled_mmc(150.0, 25.0, 8, 400.0, legacy_rng, 0.1);
    const auto actual = simulate_pooled_mmc(150.0, 25.0, 8, 400.0, wrapped_rng, 0.1);
    EXPECT_EQ(actual.completed, expected.completed);
    EXPECT_EQ(actual.mean_response, expected.mean_response);
    EXPECT_EQ(actual.p95_response, expected.p95_response);
    EXPECT_EQ(actual.utilization, expected.utilization);
    EXPECT_EQ(wrapped_rng(), legacy_rng());
  }
}

TEST(RequestPath, UnstablePairViolatesEverything) {
  const dspp::DsppModel model = single_pair_model(100.0);
  const dspp::PairIndex pairs(model);
  const Vector demand{500.0};
  const Vector allocation{2.0};  // per-server rate 250 >> mu = 100
  const auto assignment = dspp::assign_demand(pairs, allocation, demand);
  RequestSimOptions options;
  options.duration_s = 10.0;
  const auto report = simulate_requests(model, pairs, allocation, assignment, options);
  ASSERT_TRUE(report.pairs[0].unstable);
  EXPECT_EQ(report.pairs[0].requests, static_cast<std::size_t>(500.0 * 10.0));
  EXPECT_EQ(report.pairs[0].violations, report.pairs[0].requests);
  EXPECT_DOUBLE_EQ(report.violating_fraction, 1.0);
}

TEST(RequestPath, ValidatesInputs) {
  const dspp::DsppModel model = single_pair_model(100.0);
  const dspp::PairIndex pairs(model);
  const Vector demand{50.0};
  const Vector allocation{1.0};
  const auto assignment = dspp::assign_demand(pairs, allocation, demand);
  RequestSimOptions options;
  options.duration_s = 0.0;
  EXPECT_THROW(simulate_requests(model, pairs, allocation, assignment, options),
               PreconditionError);
  options.duration_s = 1.0;
  options.warmup_fraction = 1.0;
  EXPECT_THROW(simulate_requests(model, pairs, allocation, assignment, options),
               PreconditionError);
  options.warmup_fraction = 0.1;
  EXPECT_THROW(
      simulate_requests(model, pairs, Vector(3, 1.0), assignment, options),
      PreconditionError);
}

TEST(RequestPath, SimulateDayFillsTimelineAndReports) {
  // A short request-level day over a small preset: one report per period,
  // requests simulated, and (with the timeline armed) the req_* columns
  // filled in every committed frame.
  gp::scenario::ScenarioSpec spec = gp::scenario::section7_spec(2, 6);
  spec.sim.periods = 4;
  spec.sim.seed = 3;
  gp::scenario::PolicySpec policy;
  policy.kind = "reactive";

  RequestDayOptions options;
  options.sim.duration_s = 5.0;
  options.sim.seed = 99;

  const bool was_enabled = obs::TimelineWriter::enabled();
  obs::TimelineWriter::set_enabled(true);
  const auto result = gp::scenario::simulate_request_day(spec, policy, options);
  const auto frames = obs::TimelineWriter::local().frames();
  obs::TimelineWriter::set_enabled(was_enabled);

  ASSERT_EQ(result.period_reports.size(), 4u);
  EXPECT_GT(result.simulated_requests, 0u);
  EXPECT_GT(result.requests_per_s, 0.0);
  EXPECT_EQ(result.summary.periods.size(), 4u);
  ASSERT_EQ(frames.size(), 4u);
  for (std::size_t k = 0; k < frames.size(); ++k) {
    EXPECT_DOUBLE_EQ(frames[k].req_simulated,
                     static_cast<double>(result.period_reports[k].simulated_requests));
    EXPECT_GT(frames[k].req_simulated, 0.0);
    EXPECT_GT(frames[k].req_mean_latency_ms, 0.0);
    EXPECT_GE(frames[k].req_worst_p95_ms, frames[k].req_mean_latency_ms);
  }
  // The day is deterministic end to end for a fixed pair of seeds.
  const auto again = gp::scenario::simulate_request_day(spec, policy, options);
  ASSERT_EQ(again.period_reports.size(), result.period_reports.size());
  for (std::size_t k = 0; k < result.period_reports.size(); ++k) {
    EXPECT_EQ(again.period_reports[k].simulated_requests,
              result.period_reports[k].simulated_requests);
    EXPECT_EQ(again.period_reports[k].mean_latency_ms,
              result.period_reports[k].mean_latency_ms);
  }
}

}  // namespace
}  // namespace gp::sim
