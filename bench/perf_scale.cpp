// Planet-scale performance study of the pruned pair index and the window
// solve (BENCH_scale.json).
//
// The continental geography at 200 data centers x 2000 access networks,
// measured three ways:
//
//   1. Assignment-scan speedup. One control period's routing work —
//      assign_demand + evaluate_sla — over the dense all-feasible-pairs
//      index versus the pruned index (k = 8 nearest feasible DCs per
//      network). Placement decisions are identical (the pruned set contains
//      each network's nearest data center); only the pair count differs.
//      Each index's time is the fastest of kScanPasses passes of 40 dense
//      or 400 pruned scans, the two interleaved so both see the same load:
//      one pass alone spreads wider than bench_check's 15% on a shared host.
//   2. Window-QP solve growth. dspp::WindowSolver, the solver every MPC
//      step uses (separable path first, ADMM when it does not certify;
//      warm receding-horizon steady state, min-of-3, single lane), at
//      100x1000 and at 200x2000. The growth exponent log2(t_B / t_A) says
//      how the per-solve cost scales when the topology doubles in BOTH
//      dimensions. The JSON records the active-set steps of the timed
//      solves, the work the separable path did (deterministic, unlike the
//      wall time).
//   3. Cross-lane determinism. The 200x2000 window solve repeated at
//      max_lanes 1, 4 and 7 must produce BIT-identical allocations and
//      reconfigurations (the same contract perf_requests and perf_sweep
//      pin for their lanes).
//
// Gates, in bench_check.py --internal form:
//   * assign_speedup >= assign_speedup_min (10.0): the pruned index must
//     buy at least 10x scan throughput at this scale (the pair ratio is
//     ~25x, so this floor has honest margin).
//   * qp_growth_exponent <= qp_growth_exponent_max (2.0): doubling the
//     topology must grow the window solve sub-quadratically — the point
//     of pruning to k candidates is that the QP scales with V*k, not L*V.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "dspp/assignment.hpp"
#include "dspp/window_solver.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

namespace {

constexpr std::size_t kHorizon = 4;    ///< window length W
constexpr std::size_t kScanPasses = 5;
constexpr double kSpeedupFloor = 10.0;
constexpr double kExponentCeiling = 2.0;

/// Nearest-DC allocation per network, provisioned per constraint (11).
/// Identical placement under the dense and the pruned index (the pruned
/// candidate set always contains the nearest feasible data center).
gp::linalg::Vector nearest_dc_allocation(const gp::dspp::DsppModel& model,
                                         const gp::dspp::PairIndex& pairs,
                                         const gp::linalg::Vector& demand) {
  gp::linalg::Vector allocation(pairs.num_pairs(), 0.0);
  for (std::size_t v = 0; v < pairs.num_access_networks(); ++v) {
    std::size_t best = pairs.pairs_of_access_network(v).front();
    for (std::size_t p : pairs.pairs_of_access_network(v)) {
      if (model.network.latency_ms(pairs.datacenter_of(p), v) <
          model.network.latency_ms(pairs.datacenter_of(best), v)) {
        best = p;
      }
    }
    allocation[best] = std::ceil(pairs.coefficient(best) * demand[v]);
  }
  return allocation;
}

/// Times `reps` assignment scans (assign_demand + evaluate_sla) and returns
/// the total wall time; `checksum` guards against dead-code elimination.
double time_scans(const gp::dspp::DsppModel& model, const gp::dspp::PairIndex& pairs,
                  const gp::linalg::Vector& allocation, const gp::linalg::Vector& demand,
                  std::size_t reps, double& checksum) {
  gp::obs::Span span("perf_scale.scan", static_cast<double>(pairs.num_pairs()));
  for (std::size_t r = 0; r < reps; ++r) {
    const gp::dspp::Assignment assignment = gp::dspp::assign_demand(pairs, allocation, demand);
    const gp::dspp::SlaReport report =
        gp::dspp::evaluate_sla(model, pairs, allocation, assignment);
    checksum += assignment.total_unserved() + report.mean_latency_ms;
  }
  return span.close();
}

/// Window inputs at the given demand multiplier (hours 0.5, 1.0, ... like
/// the ADMM micro-bench).
gp::dspp::WindowInputs make_inputs(const gp::scenario::ScenarioBundle& bundle,
                                   std::size_t num_pairs, double demand_scale) {
  gp::dspp::WindowInputs inputs;
  inputs.initial_state = gp::linalg::Vector(num_pairs, 0.0);
  for (std::size_t t = 0; t < kHorizon; ++t) {
    const double utc_hour = 0.5 * static_cast<double>(t) + 0.5;
    gp::linalg::Vector demand(bundle.demand.mean_rates(utc_hour));
    for (double& d : demand) d *= demand_scale;
    inputs.demand.push_back(std::move(demand));
    inputs.price.push_back(bundle.prices.server_prices(utc_hour));
  }
  return inputs;
}

struct QpTiming {
  std::size_t dcs = 0;
  std::size_t ans = 0;
  std::size_t pairs = 0;
  double wall_ms = 0.0;           ///< best warm solve
  int active_set_steps = 0;       ///< summed over the three timed solves
  bool ok = true;                 ///< every solve optimal
};

/// The window solver as MpcController configures it, capped at `lanes`.
gp::dspp::WindowSolverSettings window_settings(std::size_t lanes) {
  gp::dspp::WindowSolverSettings settings;
  settings.max_lanes = lanes;
  settings.solver.auto_warm_start = true;
  settings.solver.cache_structure = true;
  return settings;
}

/// Steady-state warm solve time of the window solver at one topology scale:
/// cold solve untimed, then three timed solves alternating the demand level
/// (so every timed solve moves from the previous solution), min-of-3.
QpTiming time_qp(const gp::scenario::ScenarioSpec& base, std::size_t dcs, std::size_t ans) {
  gp::scenario::ScenarioSpec spec = base;
  spec.num_dcs = dcs;
  spec.num_cities = ans;
  const gp::scenario::ScenarioBundle bundle = gp::scenario::build(spec);
  const gp::dspp::PairIndex pairs(bundle.model);

  // Single lane: growth timing, not thread scaling.
  gp::dspp::WindowSolver solver(bundle.model, pairs, window_settings(1));

  QpTiming timing;
  timing.dcs = dcs;
  timing.ans = ans;
  timing.pairs = pairs.num_pairs();
  timing.ok = solver.solve(make_inputs(bundle, pairs.num_pairs(), 1.0)).ok();  // cold, untimed

  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double scale = rep % 2 == 0 ? 1.05 : 0.95;
    gp::obs::Span span("perf_scale.qp", static_cast<double>(dcs));
    const gp::dspp::WindowSolution solution =
        solver.solve(make_inputs(bundle, pairs.num_pairs(), scale));
    const double wall = span.close();
    timing.ok = timing.ok && solution.ok();
    timing.active_set_steps += solution.active_set_steps;
    if (rep == 0 || wall < best) best = wall;
  }
  timing.wall_ms = best;
  return timing;
}

/// Bit-exact comparison of two window solutions (allocations and
/// reconfigurations, every period, no tolerance).
bool identical(const gp::dspp::WindowSolution& a, const gp::dspp::WindowSolution& b) {
  if (a.status != b.status || a.x.size() != b.x.size() || a.u.size() != b.u.size()) {
    return false;
  }
  for (std::size_t t = 0; t < a.x.size(); ++t) {
    if (a.x[t] != b.x[t] || a.u[t] != b.u[t]) return false;
  }
  return true;
}

}  // namespace

int main() {
  // Size the global pool for the multi-lane runs regardless of what the
  // machine reports (the pool is sized once, on first use).
  setenv("GEOPLACE_THREADS", "4", /*overwrite=*/0);
  const unsigned cpus = std::thread::hardware_concurrency();

  const gp::scenario::ScenarioSpec spec = gp::scenario::preset("scale_continental");
  const gp::scenario::ScenarioBundle bundle = gp::scenario::build(spec);

  // --- 1. assignment-scan speedup: dense vs pruned pair index -------------
  gp::dspp::DsppModel dense_model = bundle.model;
  dense_model.candidates_per_an = 0;
  const gp::dspp::PairIndex dense_pairs(dense_model);
  const gp::dspp::PairIndex pruned_pairs(bundle.model);

  const gp::linalg::Vector demand(bundle.demand.mean_rates(12.0));
  const gp::linalg::Vector dense_alloc =
      nearest_dc_allocation(dense_model, dense_pairs, demand);
  const gp::linalg::Vector pruned_alloc =
      nearest_dc_allocation(bundle.model, pruned_pairs, demand);

  double checksum = 0.0;
  const std::size_t dense_reps = 40;
  const std::size_t pruned_reps = 400;
  // Warm the caches once, untimed.
  time_scans(dense_model, dense_pairs, dense_alloc, demand, 1, checksum);
  time_scans(bundle.model, pruned_pairs, pruned_alloc, demand, 1, checksum);
  double dense_wall = 0.0;
  double pruned_wall = 0.0;
  for (std::size_t pass = 0; pass < kScanPasses; ++pass) {
    const double dense =
        time_scans(dense_model, dense_pairs, dense_alloc, demand, dense_reps, checksum);
    const double pruned =
        time_scans(bundle.model, pruned_pairs, pruned_alloc, demand, pruned_reps, checksum);
    dense_wall = pass == 0 ? dense : std::min(dense_wall, dense);
    pruned_wall = pass == 0 ? pruned : std::min(pruned_wall, pruned);
  }
  const double dense_scans_per_s =
      dense_wall > 0.0 ? static_cast<double>(dense_reps) / (dense_wall / 1000.0) : 0.0;
  const double pruned_scans_per_s =
      pruned_wall > 0.0 ? static_cast<double>(pruned_reps) / (pruned_wall / 1000.0) : 0.0;
  const double speedup =
      dense_scans_per_s > 0.0 ? pruned_scans_per_s / dense_scans_per_s : 0.0;

  std::printf("# scale: %zu DCs x %zu ANs, k=%zu, cpus=%u (checksum %.3g)\n",
              bundle.model.num_datacenters(), bundle.model.num_access_networks(),
              spec.candidates_per_an, cpus, checksum);
  std::printf("dense index:  %zu pairs, %.2f ms/scan, %.1f scans/s\n",
              dense_pairs.num_pairs(), dense_wall / static_cast<double>(dense_reps),
              dense_scans_per_s);
  std::printf("pruned index: %zu pairs, %.3f ms/scan, %.1f scans/s\n",
              pruned_pairs.num_pairs(), pruned_wall / static_cast<double>(pruned_reps),
              pruned_scans_per_s);
  std::printf("assignment-scan speedup: x%.1f (floor %.1f)\n", speedup, kSpeedupFloor);

  // --- 2. window-QP growth across a topology doubling ---------------------
  const QpTiming qp_a = time_qp(spec, 100, 1000);
  const QpTiming qp_b = time_qp(spec, 200, 2000);
  const double exponent = (qp_a.wall_ms > 0.0 && qp_b.wall_ms > 0.0)
                              ? std::log2(qp_b.wall_ms / qp_a.wall_ms)
                              : kExponentCeiling + 1.0;
  const bool qp_ok = qp_a.ok && qp_b.ok;
  std::printf("window QP %zux%zu:  %zu pairs, %.1f ms, %d active-set steps\n", qp_a.dcs,
              qp_a.ans, qp_a.pairs, qp_a.wall_ms, qp_a.active_set_steps);
  std::printf("window QP %zux%zu: %zu pairs, %.1f ms, %d active-set steps\n", qp_b.dcs,
              qp_b.ans, qp_b.pairs, qp_b.wall_ms, qp_b.active_set_steps);
  std::printf("growth exponent on topology doubling: %.2f (ceiling %.1f)\n", exponent,
              kExponentCeiling);

  // --- 3. cross-lane bit-identity of the window solve ---------------------
  auto solve_at = [&](std::size_t lanes) {
    gp::dspp::WindowSolver solver(bundle.model, pruned_pairs, window_settings(lanes));
    return solver.solve(make_inputs(bundle, pruned_pairs.num_pairs(), 1.0));
  };
  const gp::dspp::WindowSolution lanes1 = solve_at(1);
  const gp::dspp::WindowSolution lanes4 = solve_at(4);
  const gp::dspp::WindowSolution lanes7 = solve_at(7);  // over-subscribed on purpose
  const bool bit_identical = identical(lanes1, lanes4) && identical(lanes1, lanes7);
  std::printf("bit-identical window solve across lane caps 1/4/7: %s\n",
              bit_identical ? "yes" : "NO");

  const gp::obs::RunManifest manifest = gp::obs::RunManifest::capture("perf_scale");
  std::FILE* json = std::fopen("BENCH_scale.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"manifest\": %s,\n", manifest.to_json_object().c_str());
    std::fprintf(json, "  \"cpus\": %u,\n", cpus);
    std::fprintf(json,
                 "  \"topology\": {\"dcs\": %zu, \"ans\": %zu, \"k\": %zu, "
                 "\"dense_pairs\": %zu, \"pruned_pairs\": %zu},\n",
                 bundle.model.num_datacenters(), bundle.model.num_access_networks(),
                 spec.candidates_per_an, dense_pairs.num_pairs(), pruned_pairs.num_pairs());
    std::fprintf(json,
                 "  \"assign\": {\"dense\": {\"wall_ms\": %.3f, \"scans_per_s\": %.2f},\n"
                 "             \"pruned\": {\"wall_ms\": %.3f, \"scans_per_s\": %.2f}},\n",
                 dense_wall, dense_scans_per_s, pruned_wall, pruned_scans_per_s);
    std::fprintf(json, "  \"assign_speedup\": %.3f,\n", speedup);
    std::fprintf(json, "  \"assign_speedup_min\": %.1f,\n", kSpeedupFloor);
    std::fprintf(json,
                 "  \"qp\": {\"scale_a\": {\"dcs\": %zu, \"ans\": %zu, \"pairs\": %zu, "
                 "\"wall_ms\": %.3f, \"active_set_steps\": %d},\n"
                 "         \"scale_b\": {\"dcs\": %zu, \"ans\": %zu, \"pairs\": %zu, "
                 "\"wall_ms\": %.3f, \"active_set_steps\": %d}},\n",
                 qp_a.dcs, qp_a.ans, qp_a.pairs, qp_a.wall_ms, qp_a.active_set_steps,
                 qp_b.dcs, qp_b.ans, qp_b.pairs, qp_b.wall_ms, qp_b.active_set_steps);
    std::fprintf(json, "  \"qp_growth_exponent\": %.3f,\n", exponent);
    std::fprintf(json, "  \"qp_growth_exponent_max\": %.1f,\n", kExponentCeiling);
    std::fprintf(json, "  \"bit_identical\": %s\n}\n", bit_identical ? "true" : "false");
    std::fclose(json);
  }

  const bool ok = bit_identical && qp_ok && speedup >= kSpeedupFloor &&
                  exponent <= kExponentCeiling;
  std::printf("\n# determinism %s, scan speedup %s, QP growth %s, solves %s -- %s\n",
              bit_identical ? "holds" : "VIOLATED",
              speedup >= kSpeedupFloor ? "meets floor" : "BELOW FLOOR",
              exponent <= kExponentCeiling ? "sub-quadratic" : "ABOVE CEILING",
              qp_ok ? "optimal" : "NOT OPTIMAL", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
