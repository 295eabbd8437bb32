// Performance study of the batched request path (BENCH_requests.json).
//
// One deployment — the Section VII geography with demand scaled to ~2M
// requests/s across the 24 access networks, every network served by one
// data-center pair at ~80% per-server utilization — run through
// sim::simulate_requests three times on the active SIMD tier: single lane,
// four lanes, and seven lanes; then once more, single lane, pinned to the
// scalar tier. Reports wall time and requests/s for the first two, verifies
// the determinism contract (the per-pair statistics must be BIT-identical at
// every lane count — the same contract perf_sweep pins for sweep lanes — and
// on the scalar tier, whose exponential-draw kernel every vector tier must
// reproduce bit for bit), and derives the thread scaling ratio.
//
// Gates, in bench_check.py --internal form (X >= X_min):
//   * requests_per_s >= 2e7: the single-lane throughput floor of the
//     million-user request path. This is an absolute floor — the batched
//     generator must sustain twenty million simulated requests per second
//     on one core.
//   * thread_scaling_ratio >= 2.0 on a >= 4-core host (0.0 = not gated on
//     smaller boxes, like perf_sweep's honest-reporting rule).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "dspp/assignment.hpp"
#include "linalg/simd_dispatch.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "scenario/spec.hpp"
#include "sim/request_path.hpp"

namespace {

/// Bit-exact comparison of two reports (every per-pair field, no tolerance).
bool identical(const gp::sim::RequestSimReport& a, const gp::sim::RequestSimReport& b) {
  if (a.pairs.size() != b.pairs.size() || a.simulated_requests != b.simulated_requests ||
      a.mean_latency_ms != b.mean_latency_ms ||
      a.worst_pair_p95_ms != b.worst_pair_p95_ms ||
      a.violating_fraction != b.violating_fraction) {
    return false;
  }
  for (std::size_t p = 0; p < a.pairs.size(); ++p) {
    const auto& x = a.pairs[p];
    const auto& y = b.pairs[p];
    if (x.pair != y.pair || x.requests != y.requests || x.violations != y.violations ||
        x.mean_ms != y.mean_ms || x.p95_ms != y.p95_ms || x.utilization != y.utilization ||
        x.unstable != y.unstable) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  // Size the global pool for the 4-lane run regardless of what the machine
  // reports (the pool is sized once, on first use).
  setenv("GEOPLACE_THREADS", "4", /*overwrite=*/0);
  const unsigned cpus = std::thread::hardware_concurrency();

  // Section VII geography; one pair per access network at ~80% per-server
  // utilization, demand scaled to ~2M req/s so a 10-second window fires
  // ~20M requests.
  const gp::scenario::ScenarioSpec spec = gp::scenario::section7_spec();
  const gp::scenario::ScenarioBundle bundle = gp::scenario::build(spec);
  const gp::dspp::PairIndex pairs(bundle.model);

  gp::linalg::Vector demand(bundle.demand.mean_rates(12.0));
  double total_rate = 0.0;
  for (double d : demand) total_rate += d;
  const double target_rate = 2.0e6;  // requests/s across the deployment
  for (double& d : demand) d *= target_rate / total_rate;

  gp::linalg::Vector allocation(pairs.num_pairs(), 0.0);
  for (std::size_t v = 0; v < pairs.num_access_networks(); ++v) {
    // Serve each network from its nearest data center, provisioned exactly
    // per the SLA coefficient (x = a_lv * sigma, constraint (11) tight).
    std::size_t best = pairs.pairs_of_access_network(v).front();
    for (std::size_t p : pairs.pairs_of_access_network(v)) {
      if (bundle.model.network.latency_ms(pairs.datacenter_of(p), v) <
          bundle.model.network.latency_ms(pairs.datacenter_of(best), v)) {
        best = p;
      }
    }
    allocation[best] = std::ceil(pairs.coefficient(best) * demand[v]);
  }
  const gp::dspp::Assignment assignment = gp::dspp::assign_demand(pairs, allocation, demand);

  auto run_at = [&](std::size_t lanes) {
    gp::sim::RequestSimOptions options;
    options.duration_s = 10.0;
    options.seed = 1;
    options.max_lanes = lanes;
    return gp::sim::simulate_requests(bundle.model, pairs, allocation, assignment, options);
  };

  auto timed_run = [&](std::size_t lanes, double& wall_ms) {
    gp::obs::Span span("perf_requests.run", static_cast<double>(lanes));
    auto report = run_at(lanes);
    wall_ms = span.close();
    return report;
  };

  double wall1 = 0.0, wall4 = 0.0;
  const auto report1 = timed_run(1, wall1);
  const auto report4 = timed_run(4, wall4);
  const auto report7 = run_at(7);  // over-subscribed on purpose
  namespace simd = gp::linalg::simd;
  const simd::Tier active = simd::active_tier();
  simd::set_active_tier(simd::Tier::kScalar);
  const auto report_scalar = run_at(1);
  simd::set_active_tier(active);

  const bool bit_identical = identical(report1, report4) && identical(report1, report7);
  const bool tiers_identical = identical(report1, report_scalar);

  const auto requests = static_cast<double>(report1.simulated_requests);
  const double rps1 = wall1 > 0.0 ? requests / (wall1 / 1000.0) : 0.0;
  const double rps4 = wall4 > 0.0 ? requests / (wall4 / 1000.0) : 0.0;
  const double rps_min = 2.0e7;
  const double ratio = rps1 > 0.0 ? rps4 / rps1 : 0.0;
  const bool scaling_gated = cpus >= 4;
  const double ratio_min = scaling_gated ? 2.0 : 0.0;

  std::printf("# request path: %zu requests over %zu pairs, cpus=%u\n",
              report1.simulated_requests, pairs.num_pairs(), cpus);
  std::printf("lanes=1: %.1f ms, %.3g requests/s\n", wall1, rps1);
  std::printf("lanes=4: %.1f ms, %.3g requests/s\n", wall4, rps4);
  std::printf("bit-identical per-pair statistics across lane counts: %s\n",
              bit_identical ? "yes" : "NO");
  std::printf("bit-identical per-pair statistics, %s tier vs scalar: %s\n",
              simd::tier_name(active), tiers_identical ? "yes" : "NO");
  std::printf("single-lane floor: %.3g >= %.3g requests/s: %s\n", rps1, rps_min,
              rps1 >= rps_min ? "yes" : "NO");
  if (scaling_gated) {
    std::printf("thread scaling ratio: x%.2f (floor %.1f)\n", ratio, ratio_min);
  } else {
    std::printf("thread scaling ratio: x%.2f (n/a: cpus=%u < 4, not gated)\n", ratio, cpus);
  }
  std::printf("empirical SLA: mean %.2f ms, worst p95 %.2f ms, violating %.4f\n",
              report1.mean_latency_ms, report1.worst_pair_p95_ms,
              report1.violating_fraction);

  const gp::obs::RunManifest manifest = gp::obs::RunManifest::capture("perf_requests");
  std::FILE* json = std::fopen("BENCH_requests.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"manifest\": %s,\n", manifest.to_json_object().c_str());
    std::fprintf(json, "  \"cpus\": %u,\n  \"requests\": %zu,\n  \"pairs\": %zu,\n", cpus,
                 report1.simulated_requests, pairs.num_pairs());
    std::fprintf(json, "  \"lanes1\": {\"wall_ms\": %.3f, \"requests_per_s\": %.0f},\n",
                 wall1, rps1);
    std::fprintf(json, "  \"lanes4\": {\"wall_ms\": %.3f, \"requests_per_s\": %.0f},\n",
                 wall4, rps4);
    std::fprintf(json, "  \"requests_per_s\": %.0f,\n", rps1);
    std::fprintf(json, "  \"requests_per_s_min\": %.0f,\n", rps_min);
    std::fprintf(json, "  \"bit_identical\": %s,\n", bit_identical ? "true" : "false");
    std::fprintf(json, "  \"tiers_bit_identical\": %s,\n",
                 tiers_identical ? "true" : "false");
    std::fprintf(json, "  \"thread_scaling_ratio\": %.3f,\n", ratio);
    std::fprintf(json, "  \"thread_scaling_ratio_min\": %.1f\n}\n", ratio_min);
    std::fclose(json);
  }

  const bool ok = bit_identical && tiers_identical && rps1 >= rps_min &&
                  (!scaling_gated || ratio >= ratio_min);
  std::printf("\n# determinism %s, throughput %s, scaling %s -- %s\n",
              bit_identical && tiers_identical ? "holds" : "VIOLATED",
              rps1 >= rps_min ? "meets floor" : "BELOW FLOOR",
              scaling_gated ? (ratio >= ratio_min ? "meets floor" : "BELOW FLOOR") : "n/a",
              ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
