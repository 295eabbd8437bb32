// Performance study of the parallel solve layer (BENCH_parallel.json).
//
// Two experiments:
//  1. Game convergence: an 8-provider competition with a contested bottleneck
//     run at 1/2/4/8 best-response lanes. Reports wall time, speedup over the
//     single-lane run, Algorithm-2 iterations, and verifies the determinism
//     contract: cost history and final quotas are BIT-identical at every
//     thread count.
//  2. A 96-step MPC run (4 data centers x 24 cities, horizon 5) with and
//     without solver-state reuse. Reports wall time, total ADMM iterations,
//     and the solver's setup-reuse counters (structure hits, numeric-only
//     refactorizations, factorizations skipped outright).
//
// Wall-clock speedup is reported honestly: on a box with a single hardware
// thread the lanes time-slice one core and the speedup hovers around 1.0;
// the determinism check and the caching/warm-start wins are the meaningful
// signal there. `cpus` in the JSON records what the machine offered.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "game/competition.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/policy.hpp"
#include "scenario/registry.hpp"
#include "scenario/report.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using gp::linalg::Vector;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// 8 providers fighting over a cheap bottleneck site (the Fig. 7 setup).
std::vector<gp::game::ProviderConfig> game_providers() {
  const gp::topology::NetworkModel network({"dc-cheap", "dc-big"}, {"an0", "an1", "an2"},
                                           {{15.0, 25.0, 35.0}, {100.0, 20.0, 15.0}});
  gp::Rng rng(2024);
  gp::game::RandomProviderParams params;
  params.horizon = 4;
  params.max_latency_min_ms = 60.0;
  params.max_latency_max_ms = 120.0;
  params.demand_min = 150.0;
  params.demand_max = 500.0;
  std::vector<gp::game::ProviderConfig> providers;
  for (int i = 0; i < 8; ++i) {
    providers.push_back(gp::game::make_random_provider(network, params, rng));
    for (auto& price : providers.back().price) price[0] = 0.4 * price[1];
  }
  return providers;
}

struct GameRun {
  std::size_t threads = 0;
  double wall_ms = 0.0;
  int iterations = 0;
  gp::game::GameResult result;
};

GameRun run_game(std::size_t threads) {
  gp::game::GameSettings settings;
  settings.epsilon = 0.02;
  settings.num_threads = threads;
  gp::game::CompetitionGame game(game_providers(), Vector{200.0, 3000.0}, settings);
  GameRun run;
  run.threads = threads;
  const auto start = Clock::now();
  run.result = game.run();
  run.wall_ms = ms_since(start);
  run.iterations = run.result.iterations;
  return run;
}

bool identical(const gp::game::GameResult& a, const gp::game::GameResult& b) {
  if (a.cost_history != b.cost_history) return false;
  if (a.quotas.size() != b.quotas.size()) return false;
  for (std::size_t i = 0; i < a.quotas.size(); ++i) {
    if (a.quotas[i] != b.quotas[i]) return false;
  }
  return true;
}

constexpr std::size_t kMpcSteps = 96;

struct MpcRun {
  double wall_ms = 0.0;
  long long admm_iterations = 0;
  /// Window-solve effort on either path: ADMM iterations plus the
  /// separable path's active-set iterations.
  long long window_iterations = 0;
  int unsolved = 0;
  double total_cost = 0.0;
  gp::qp::AdmmCacheStats stats;
};

MpcRun run_mpc(bool reuse_solver_state) {
  const auto scenario = gp::scenario::build(gp::scenario::section7_spec(4, 24));
  gp::control::MpcSettings settings;
  settings.horizon = 5;
  settings.reuse_solver_state = reuse_solver_state;
  gp::control::MpcController controller(scenario.model, settings,
                                        gp::scenario::make_predictor("last"),
                                        gp::scenario::make_predictor("last"));

  auto demand_at = [&](std::size_t k) {
    return scenario.demand.mean_rates(static_cast<double>(k) + 0.5);
  };
  auto price_at = [&](std::size_t k) {
    return scenario.prices.server_prices(static_cast<double>(k) + 0.5);
  };

  Vector state = controller.provision_for(demand_at(0), price_at(0));
  MpcRun run;
  const auto start = Clock::now();
  for (std::size_t k = 0; k < kMpcSteps; ++k) {
    const auto step = controller.step(state, demand_at(k), price_at(k));
    run.admm_iterations += step.solver_iterations;
    run.window_iterations += step.solver_iterations + step.active_set_steps;
    if (!step.solved) ++run.unsolved;
    run.total_cost += step.window_objective;
    state = step.next_state;
  }
  run.wall_ms = ms_since(start);
  run.stats = controller.solver_cache_stats();
  return run;
}

}  // namespace

int main() {
  // Widen the global pool regardless of what the machine reports, so the
  // 2/4/8-lane runs genuinely exercise multi-threaded dispatch (the pool is
  // sized once, on first use).
  setenv("GEOPLACE_THREADS", "8", /*overwrite=*/0);
  const unsigned cpus = std::thread::hardware_concurrency();
  // Wall-clock speedup is only a meaningful ratio when the lanes can
  // actually run concurrently. On a single-hardware-thread host the runs
  // time-slice one core and the ratio is scheduler noise, so it is reported
  // as n/a (and flagged invalid in the JSON) rather than pretending 1.0x
  // is a measurement.
  const bool speedup_valid = cpus > 1;

  gp::scenario::print_series_header(
      "Parallel solve layer: 8-provider game wall time vs best-response lanes",
      {"threads", "wall_ms", "speedup", "iterations", "bit_identical"});
  if (!speedup_valid) {
    std::printf("# single hardware thread (cpus=1): speedup column is n/a\n");
  }

  std::vector<GameRun> runs;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) runs.push_back(run_game(threads));
  bool all_identical = true;
  for (const auto& run : runs) {
    const bool same = identical(run.result, runs.front().result);
    all_identical = all_identical && same;
    if (speedup_valid) {
      gp::scenario::print_row({static_cast<double>(run.threads), run.wall_ms,
                            runs.front().wall_ms / run.wall_ms,
                            static_cast<double>(run.iterations), same ? 1.0 : 0.0});
    } else {
      std::printf("%zu  %.3f  n/a  %d  %d\n", run.threads, run.wall_ms, run.iterations,
                  same ? 1 : 0);
    }
  }

  // Baseline runs with the metrics registry explicitly OFF: this is the
  // overhead-sensitive configuration (instrumented call sites reduce to one
  // relaxed atomic load), so `wall_ms` here is the number the 2% budget is
  // judged against.
  auto& registry = gp::obs::Registry::global();
  const bool registry_was_enabled = registry.enabled();
  registry.set_enabled(false);
  // Window solves on either path: the separable per-network solve or the
  // ADMM fallback. (admm.solves alone would count provision_for's one-shot
  // solve and nothing else on a separable run.)
  const auto window_solves = [&registry] {
    return registry.counter("window.separable_solves").value() +
           registry.counter("window.fallback_solves").value();
  };
  const long long counters_before = registry.counter("admm.solves").value();
  const long long windows_before = window_solves();
  const MpcRun cold = run_mpc(false);
  const MpcRun cached = run_mpc(true);
  // Disabled means disabled: the baseline runs must not have touched the
  // registry at all.
  const bool disabled_is_silent =
      registry.counter("admm.solves").value() == counters_before &&
      window_solves() == windows_before;

  // Instrumented re-run of the cached variant: same work, registry ON, so
  // BENCH_parallel.json gains iteration/cache-hit-rate fields and a
  // measured metrics-overhead ratio.
  registry.set_enabled(true);
  registry.reset_values();
  const MpcRun instrumented = run_mpc(true);
  const long long obs_window_solves = window_solves();
  const long long obs_solves = registry.counter("admm.solves").value();
  const long long obs_hits = registry.counter("admm.structure_hits").value();
  const long long obs_skipped = registry.counter("admm.factorizations_skipped").value();
  const double cache_hit_rate =
      obs_solves > 0 ? static_cast<double>(obs_hits) / static_cast<double>(obs_solves) : 0.0;
  const double skip_rate =
      obs_solves > 0 ? static_cast<double>(obs_skipped) / static_cast<double>(obs_solves)
                     : 0.0;
  const auto iters_snapshot = registry.histogram("admm.iterations_per_solve").snapshot();
  const auto step_snapshot = registry.histogram("mpc.step_ms").snapshot();
  registry.set_enabled(registry_was_enabled);
  const double obs_overhead_ratio =
      cached.wall_ms > 0.0 ? instrumented.wall_ms / cached.wall_ms : 0.0;

  // Trace-armed lane: the same cached MPC workload, plain vs with the span
  // tracer armed (obs/trace.hpp). Plain and armed samples alternate (plain,
  // armed, plain, ...), as perf_sweep's timeline lane does, so load
  // drifting on the host reaches both sides alike; the ratio takes the
  // fastest sample of each side. The registry is off so the ratio isolates
  // the tracer's own cost. Transparency means the armed run's artifacts are
  // BIT-identical (total cost, iteration counts) — tracing must observe the
  // solver, never steer it. Each armed sample starts and stops the tracer
  // (a start drops the previous events; the export at stop is outside the
  // timed runs), so BENCH_parallel.trace.json holds the last sample's spans
  // for gp_report --flame; the <=5% overhead ceiling is enforced by
  // bench_check --internal via overhead_ratio_max.
  //
  // One 96-step run takes a few milliseconds now that its windows are
  // solved network by network, so each timed sample chains kRunsPerSample
  // runs: a sample of a few ms reads the ratio only to about +/-25%, far
  // wider than the 5% ceiling it is meant to check.
  registry.set_enabled(false);
  constexpr int kOverheadReps = 5;
  constexpr int kRunsPerSample = 100;
  const auto sample_ms = [] {
    double wall = 0.0;
    for (int run = 0; run < kRunsPerSample; ++run) wall += run_mpc(true).wall_ms;
    return wall;
  };
  const MpcRun plain = run_mpc(true);
  MpcRun armed;
  double plain_best = 0.0, armed_best = 0.0;
  std::size_t trace_events = 0;
  for (int r = 0; r < kOverheadReps; ++r) {
    const double plain_ms = sample_ms();
    plain_best = r == 0 ? plain_ms : std::min(plain_best, plain_ms);
    gp::obs::start_tracing("BENCH_parallel.trace.json");
    if (r == 0) armed = run_mpc(true);
    const double armed_ms = sample_ms();
    armed_best = r == 0 ? armed_ms : std::min(armed_best, armed_ms);
    trace_events = gp::obs::Tracer::global().events().size();
    gp::obs::stop_tracing();
  }
  registry.set_enabled(registry_was_enabled);
  const bool trace_transparent = armed.total_cost == plain.total_cost &&
                                 armed.window_iterations == plain.window_iterations &&
                                 armed.unsolved == plain.unsolved;
  const double trace_overhead_ratio = plain_best > 0.0 ? armed_best / plain_best : 0.0;

  std::printf("\n# 96-step MPC (4 DCs x 24 cities, horizon 5)\n");
  gp::scenario::print_series_header(
      "variant: wall_ms, admm_iterations, window_iterations, unsolved",
      {"reuse", "wall_ms", "admm_iterations", "window_iterations", "unsolved"});
  gp::scenario::print_row({0.0, cold.wall_ms, static_cast<double>(cold.admm_iterations),
                           static_cast<double>(cold.window_iterations),
                           static_cast<double>(cold.unsolved)});
  gp::scenario::print_row({1.0, cached.wall_ms, static_cast<double>(cached.admm_iterations),
                           static_cast<double>(cached.window_iterations),
                           static_cast<double>(cached.unsolved)});
  std::printf("# cached-run solver setup: %lld solves, %lld structure hits, "
              "%lld full factors, %lld refactors, %lld factorizations skipped\n",
              cached.stats.solves, cached.stats.structure_hits,
              cached.stats.full_factorizations, cached.stats.refactorizations,
              cached.stats.factorizations_skipped);
  std::printf("# obs registry (instrumented cached run): %lld window solves (%lld admm "
              "solves)\n",
              obs_window_solves, obs_solves);
  std::printf("# obs registry (instrumented cached run): cache hit rate %.3f, "
              "skip rate %.3f, iters/solve p50 %.1f p95 %.1f, "
              "mpc step ms p50 %.3f p95 %.3f p99 %.3f, overhead x%.3f\n",
              cache_hit_rate, skip_rate, iters_snapshot.p50, iters_snapshot.p95,
              step_snapshot.p50, step_snapshot.p95, step_snapshot.p99,
              obs_overhead_ratio);
  std::printf("# trace (armed cached run): overhead x%.3f (best of %d alternating samples "
              "of %d runs each side), %zu events in the last sample, artifacts %s\n",
              trace_overhead_ratio, kOverheadReps, kRunsPerSample, trace_events,
              trace_transparent ? "bit-identical" : "DIVERGED");

  std::FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"manifest\": %s,\n",
                 gp::obs::RunManifest::capture("perf_parallel").to_json_object().c_str());
    std::fprintf(json, "  \"cpus\": %u,\n  \"game\": {\n", cpus);
    std::fprintf(json, "    \"providers\": 8,\n    \"bit_identical\": %s,\n",
                 all_identical ? "true" : "false");
    std::fprintf(json, "    \"speedup_valid\": %s,\n", speedup_valid ? "true" : "false");
    std::fprintf(json, "    \"runs\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      // The per-run speedup key is omitted entirely when invalid so that
      // downstream tooling cannot average a meaningless ratio by accident.
      if (speedup_valid) {
        std::fprintf(json,
                     "      {\"threads\": %zu, \"wall_ms\": %.3f, \"speedup\": %.3f, "
                     "\"iterations\": %d}%s\n",
                     runs[i].threads, runs[i].wall_ms, runs.front().wall_ms / runs[i].wall_ms,
                     runs[i].iterations, i + 1 < runs.size() ? "," : "");
      } else {
        std::fprintf(json,
                     "      {\"threads\": %zu, \"wall_ms\": %.3f, \"iterations\": %d}%s\n",
                     runs[i].threads, runs[i].wall_ms, runs[i].iterations,
                     i + 1 < runs.size() ? "," : "");
      }
    }
    std::fprintf(json, "    ]\n  },\n  \"mpc\": {\n    \"steps\": 96,\n");
    std::fprintf(json,
                 "    \"cold\": {\"wall_ms\": %.3f, \"admm_iterations\": %lld, "
                 "\"window_iterations\": %lld, \"unsolved\": %d},\n",
                 cold.wall_ms, cold.admm_iterations, cold.window_iterations, cold.unsolved);
    std::fprintf(json,
                 "    \"cached\": {\"wall_ms\": %.3f, \"admm_iterations\": %lld, "
                 "\"window_iterations\": %lld, \"unsolved\": %d,\n",
                 cached.wall_ms, cached.admm_iterations, cached.window_iterations,
                 cached.unsolved);
    std::fprintf(json,
                 "      \"structure_hits\": %lld, \"full_factorizations\": %lld, "
                 "\"refactorizations\": %lld, \"factorizations_skipped\": %lld},\n",
                 cached.stats.structure_hits, cached.stats.full_factorizations,
                 cached.stats.refactorizations, cached.stats.factorizations_skipped);
    std::fprintf(json,
                 "    \"obs\": {\"window_solves\": %lld, \"cache_hit_rate\": %.3f, "
                 "\"factorization_skip_rate\": %.3f,\n",
                 obs_window_solves, cache_hit_rate, skip_rate);
    std::fprintf(json,
                 "      \"iterations_per_solve_p50\": %.1f, "
                 "\"iterations_per_solve_p95\": %.1f,\n",
                 iters_snapshot.p50, iters_snapshot.p95);
    std::fprintf(json,
                 "      \"step_ms_p50\": %.3f, \"step_ms_p95\": %.3f, "
                 "\"step_ms_p99\": %.3f,\n",
                 step_snapshot.p50, step_snapshot.p95, step_snapshot.p99);
    std::fprintf(json,
                 "      \"metrics_overhead_ratio\": %.3f, "
                 "\"disabled_is_silent\": %s},\n",
                 obs_overhead_ratio, disabled_is_silent ? "true" : "false");
    // overhead_ratio_max is the bench_check --internal ceiling: an armed
    // tracer may cost at most 5% wall time on the MPC workload.
    std::fprintf(json,
                 "    \"trace\": {\"overhead_ratio\": %.3f, "
                 "\"overhead_ratio_max\": 1.05,\n"
                 "      \"events\": %zu, \"transparent\": %s},\n",
                 trace_overhead_ratio, trace_events, trace_transparent ? "true" : "false");
    std::fprintf(json, "    \"iteration_ratio\": %.3f,\n",
                 cold.window_iterations > 0
                     ? static_cast<double>(cached.window_iterations) /
                           static_cast<double>(cold.window_iterations)
                     : 0.0);
    std::fprintf(json, "    \"wall_ratio\": %.3f\n  }\n}\n",
                 cold.wall_ms > 0.0 ? cached.wall_ms / cold.wall_ms : 0.0);
    std::fclose(json);
  }

  // The run is healthy when determinism holds, solver-state reuse did not
  // cost window iterations on either path (it should cut them) nor break
  // any step, the disabled registry stayed untouched, and the instrumented
  // run recorded every window solve.
  const bool ok = all_identical && cached.unsolved == cold.unsolved &&
                  cached.window_iterations <= cold.window_iterations &&
                  disabled_is_silent && obs_window_solves == static_cast<long long>(kMpcSteps) &&
                  trace_transparent && trace_events > 0;
  std::printf("\n# determinism %s, cached window iterations %lld vs cold %lld, "
              "disabled registry %s, trace %s -- %s\n",
              all_identical ? "holds" : "VIOLATED", cached.window_iterations,
              cold.window_iterations, disabled_is_silent ? "silent" : "NOT SILENT",
              trace_transparent ? "transparent" : "NOT TRANSPARENT",
              ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
