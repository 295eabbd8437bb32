// Micro-benchmark of the ADMM hot-loop kernels (BENCH_admm.json).
//
// Three experiments on a fig06-scale window QP (the Section VII environment,
// 4 data centers x 24 cities, prediction horizon K = 20):
//
//  1. Full-solver timing: a cold solve (structure build) and a warm re-solve
//     (structure + factorization reuse) with ns/iteration and the alloc-probe
//     count of heap allocations inside the hot loop. This binary installs
//     operator new/delete hooks, so the warm count must be exactly zero.
//  2. SpMV bandwidth: cold CSC A^T y (allocating, column-gather) vs the SELL
//     mirrors' A x and A^T y on each tier, in effective GB/s with
//     bytes = 12 * nnz + 8 * (rows + cols) per product. On hardware with a
//     vector tier, the best vector SELL pair (A x + A^T y) must beat the
//     scalar SELL pair by >= 1.25x (the floor travels as
//     spmv.vector_speedup_min, 0.0 — i.e. informational — when no vector ISA
//     is available).
//  3. Cold LDL^T: SparseLdlt::factor on the solver's KKT pattern, ordering
//     and symbolic analysis included (best of a few fresh factorizations) —
//     the setup cost a structure change or a new polish active set pays.
//
// Cross-tier bit-identity of the kernels and of whole solves is pinned by
// the SimdTiers and AdmmHotLoop tests (tests/test_perf_kernels.cpp).
//
// The `wall_ms` / `gb_s` keys in BENCH_admm.json are the ones
// tools/bench_check.py gates on in pair mode, and the `*_min` keys are the
// machine-aware floors `bench_check.py --internal` enforces; other ratios
// and counters are informational.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/alloc_probe.hpp"
#include "dspp/window_program.hpp"
#include "linalg/simd_dispatch.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "linalg/sparse_simd.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "qp/admm_solver.hpp"
#include "scenario/registry.hpp"
#include "scenario/report.hpp"

// Route every heap allocation through the alloc probe so hot-loop allocation
// counts are real measurements, not estimates. The library never installs
// these hooks itself; opting in is this binary's job.
void* operator new(std::size_t size) {
  gp::alloc_probe_bump();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  gp::alloc_probe_bump();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;
using gp::linalg::Vector;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// The fig06-scale window program: full Section VII environment at the
/// longest horizon family of Fig. 6 (K = 20).
gp::dspp::WindowProgram build_window(std::size_t horizon) {
  static gp::scenario::ScenarioBundle scenario =
      gp::scenario::build(gp::scenario::section7_spec(4, 24));
  const gp::dspp::PairIndex pairs(scenario.model);
  gp::dspp::WindowInputs inputs;
  inputs.initial_state = Vector(pairs.num_pairs(), 0.0);
  for (std::size_t t = 0; t < horizon; ++t) {
    const double utc_hour = 0.5 * static_cast<double>(t) + 0.5;
    inputs.demand.push_back(scenario.demand.mean_rates(utc_hour));
    inputs.price.push_back(scenario.prices.server_prices(utc_hour));
  }
  return {scenario.model, pairs, std::move(inputs)};
}

/// A deterministic dense input for the products and solves below.
Vector wave(std::size_t size) {
  Vector out(size);
  for (std::size_t i = 0; i < size; ++i) out[i] = std::sin(static_cast<double>(i) + 1.0);
  return out;
}

/// Effective bandwidth of one sparse product in GB/s: values (8 B) and
/// column/row indices (4 B) per nonzero, plus reading the input and writing
/// the output vector once each.
double gbps(const gp::linalg::SparseMatrix& a, double wall_ms, int reps) {
  const double bytes = 12.0 * static_cast<double>(a.nnz()) +
                       8.0 * static_cast<double>(a.rows() + a.cols());
  return bytes * static_cast<double>(reps) / (wall_ms * 1e-3) / 1e9;
}

}  // namespace

int main() {
  namespace simd = gp::linalg::simd;
  constexpr std::size_t kHorizon = 20;
  constexpr int kReps = 5;
  constexpr int kSpmvReps = 400;

  // The tier the dispatcher picked at startup (GEOPLACE_SIMD respected);
  // every forced-tier experiment below restores it when done.
  const simd::Tier entry_tier = simd::active_tier();
  std::vector<simd::Tier> tiers;
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_available(t)) tiers.push_back(t);
  }

  const gp::dspp::WindowProgram program = build_window(kHorizon);
  const gp::qp::QpProblem& problem = program.problem();
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();

  std::printf("# ADMM kernel micro-bench: fig06-scale window QP "
              "(4 DCs x 24 cities, K=%zu): n=%zu m=%zu nnz(A)=%lld nnz(P)=%lld\n",
              kHorizon, n, m, static_cast<long long>(problem.a.nnz()),
              static_cast<long long>(problem.p.nnz()));
  std::printf("# simd: detected %s, active %s, tiers:",
              simd::tier_name(simd::detected_tier()), simd::tier_name(entry_tier));
  for (simd::Tier t : tiers) std::printf(" %s", simd::tier_name(t));
  std::printf("\n");

  // --- 1. Full solver: cold solve, then a warm structure-cache re-solve. ---
  gp::qp::AdmmSolver solver;
  auto cold_start = Clock::now();
  const gp::qp::QpResult cold = solver.solve(problem);
  const double cold_ms = ms_since(cold_start);
  auto warm_start = Clock::now();
  const gp::qp::QpResult warm = solver.solve(problem);
  const double warm_ms = ms_since(warm_start);
  const bool solves_ok = cold.ok() && warm.ok();
  const double warm_ns_per_iter =
      warm.iterations > 0 ? warm_ms * 1e6 / warm.iterations : 0.0;

  // Instrumented re-solve: the obs counters the trace tooling watches.
  auto& registry = gp::obs::Registry::global();
  const bool registry_was_enabled = registry.enabled();
  registry.set_enabled(true);
  registry.reset_values();
  (void)solver.solve(problem);
  const long long obs_allocs = registry.counter("admm.allocs").value();
  const long long obs_spmv_ns = registry.counter("admm.spmv_ns").value();
  const double obs_spmv_gb_s = registry.gauge("admm.spmv_gb_s").value();
  registry.set_enabled(registry_was_enabled);

  std::printf("\n# solver: cold %.3f ms (%d iters, %lld hot-loop allocs), "
              "warm %.3f ms (%d iters, %lld hot-loop allocs, skip=%d)\n",
              cold_ms, cold.iterations, cold.info.hot_loop_allocations, warm_ms,
              warm.iterations, warm.info.hot_loop_allocations,
              warm.info.factorization_skipped ? 1 : 0);
  std::printf("# obs counters (instrumented warm solve): admm.allocs=%lld "
              "admm.spmv_ns=%lld admm.spmv_gb_s=%.2f\n",
              obs_allocs, obs_spmv_ns, obs_spmv_gb_s);

  // --- 2. SpMV bandwidth: cold CSC A^T vs the SELL mirrors on every tier
  //        (both orientations, bitwise-checked against the CSC products). ---
  gp::linalg::SellMirror a_sell, at_sell;
  a_sell.build(problem.a);
  at_sell.build_transposed(problem.a);
  const Vector yv = wave(m);
  const Vector xv = wave(n);
  const Vector ref_ax = problem.a.multiply(xv);
  const Vector ref_aty = problem.a.multiply_transposed(yv);
  Vector sell_n(n, 0.0), sell_m(m, 0.0);
  double guard = 0.0;

  auto t0 = Clock::now();
  for (int r = 0; r < kSpmvReps; ++r) {
    const Vector aty = problem.a.multiply_transposed(yv);
    guard += aty[static_cast<std::size_t>(r) % n];
  }
  const double csc_at_ms = ms_since(t0);
  std::printf("\n# spmv (%d reps): csc A^T %.3f ms (%.2f GB/s)\n", kSpmvReps, csc_at_ms,
              gbps(problem.a, csc_at_ms, kSpmvReps));

  // SELL per tier: the layout is tier-independent, only the kernel changes.
  struct TierSpmv {
    simd::Tier tier = simd::Tier::kScalar;
    double ax_ms = 0.0, at_ms = 0.0;
  };
  std::vector<TierSpmv> tier_spmv;
  bool sell_identical = true;
  for (simd::Tier t : tiers) {
    simd::set_active_tier(t);
    TierSpmv row;
    row.tier = t;
    a_sell.multiply_into(1.0, xv, sell_m);
    at_sell.multiply_into(1.0, yv, sell_n);
    sell_identical = sell_identical && sell_m == ref_ax && sell_n == ref_aty;
    t0 = Clock::now();
    for (int r = 0; r < kSpmvReps; ++r) {
      a_sell.multiply_into(1.0, xv, sell_m);
      guard += sell_m[static_cast<std::size_t>(r) % m];
    }
    row.ax_ms = ms_since(t0);
    t0 = Clock::now();
    for (int r = 0; r < kSpmvReps; ++r) {
      at_sell.multiply_into(1.0, yv, sell_n);
      guard += sell_n[static_cast<std::size_t>(r) % n];
    }
    row.at_ms = ms_since(t0);
    std::printf("# spmv sell[%s]: Ax %.3f ms (%.2f GB/s), A^T %.3f ms (%.2f GB/s)\n",
                simd::tier_name(t), row.ax_ms, gbps(problem.a, row.ax_ms, kSpmvReps),
                row.at_ms, gbps(problem.a, row.at_ms, kSpmvReps));
    tier_spmv.push_back(row);
  }
  simd::set_active_tier(entry_tier);

  // Machine-aware bandwidth gate: the best vector SELL tier against the
  // scalar SELL pair (one Ax + one A^T y — the per-check work the solver's
  // residual section does, on the path a machine without AVX2 takes).
  // 0.0 floor = informational only.
  double scalar_pair_ms = 0.0;
  double best_vector_pair_ms = 0.0;
  for (const TierSpmv& row : tier_spmv) {
    const double pair = row.ax_ms + row.at_ms;
    if (row.tier == simd::Tier::kScalar) {
      scalar_pair_ms = pair;
    } else if (best_vector_pair_ms == 0.0 || pair < best_vector_pair_ms) {
      best_vector_pair_ms = pair;
    }
  }
  const bool has_vector_tier = simd::tier_available(simd::Tier::kAvx2) ||
                               simd::tier_available(simd::Tier::kAvx512);
  const double vector_speedup =
      best_vector_pair_ms > 0.0 ? scalar_pair_ms / best_vector_pair_ms : 0.0;
  const double vector_speedup_min = has_vector_tier ? 1.25 : 0.0;
  std::printf("# spmv vector speedup x%.2f (best vector sell tier vs scalar sell, "
              "floor %.2f%s) [guard %.3g]\n",
              vector_speedup, vector_speedup_min,
              has_vector_tier ? "" : " = informational", guard);

  // --- 3. Cold LDL^T factorization of the solver's KKT pattern
  //        [[P + sigma I, A^T], [A, -I]] (upper triangle, built from the
  //        unscaled P and A). Quasi-definite matrices factor without
  //        pivoting, so the cost depends on the pattern alone and a unit
  //        rho serves for every row. ---
  std::vector<gp::linalg::Triplet> kkt_triplets;
  const auto dim = static_cast<std::int32_t>(n + m);
  for (std::int32_t c = 0; c < problem.p.cols(); ++c) {
    for (std::int32_t e = problem.p.col_ptr()[c]; e < problem.p.col_ptr()[c + 1]; ++e) {
      if (problem.p.row_idx()[e] <= c) {
        kkt_triplets.push_back({problem.p.row_idx()[e], c, problem.p.values()[e]});
      }
    }
    kkt_triplets.push_back({c, c, gp::qp::kAdmmSigma});
  }
  for (std::int32_t c = 0; c < problem.a.cols(); ++c) {
    for (std::int32_t e = problem.a.col_ptr()[c]; e < problem.a.col_ptr()[c + 1]; ++e) {
      kkt_triplets.push_back({c, static_cast<std::int32_t>(n) + problem.a.row_idx()[e],
                              problem.a.values()[e]});
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    const auto row = static_cast<std::int32_t>(n + i);
    kkt_triplets.push_back({row, row, -1.0});
  }
  const auto kkt = gp::linalg::SparseMatrix::from_triplets(dim, dim, kkt_triplets);
  double cold_factor_ms = 0.0;
  long long l_nnz = 0;
  bool factor_ok = true;
  for (int r = 0; r < kReps; ++r) {
    gp::linalg::SparseLdlt ldlt;
    const auto factor_start = Clock::now();
    factor_ok = ldlt.factor(kkt) == gp::linalg::SparseLdlt::Status::kOk && factor_ok;
    const double ms = ms_since(factor_start);
    cold_factor_ms = r == 0 ? ms : std::min(cold_factor_ms, ms);
    l_nnz = ldlt.l_nnz();
  }
  // One solve against a kept factor: the KKT share of every ADMM iteration
  // (informational; best of kReps batches of kSolves solves).
  constexpr int kSolves = 200;
  double solve_ns = 0.0;
  {
    gp::linalg::SparseLdlt ldlt;
    factor_ok = ldlt.factor(kkt) == gp::linalg::SparseLdlt::Status::kOk && factor_ok;
    const Vector rhs = wave(static_cast<std::size_t>(dim));
    Vector x(rhs.size());
    for (int r = 0; r < kReps && factor_ok; ++r) {
      const auto solve_start = Clock::now();
      for (int s = 0; s < kSolves; ++s) {
        std::copy(rhs.begin(), rhs.end(), x.begin());
        ldlt.solve_in_place(x);
      }
      const double ns = ms_since(solve_start) * 1e6 / kSolves;
      solve_ns = r == 0 ? ns : std::min(solve_ns, ns);
    }
  }
  std::printf("# ldlt: cold factor %.3f ms, solve %.0f ns (dim %d, nnz(KKT) %lld, nnz(L) %lld, "
              "best of %d)\n",
              cold_factor_ms, solve_ns, dim, static_cast<long long>(kkt.nnz()), l_nnz, kReps);

  std::FILE* json = std::fopen("BENCH_admm.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"manifest\": %s,\n",
                 gp::obs::RunManifest::capture("micro_admm_kernels").to_json_object().c_str());
    std::fprintf(json, "  \"problem\": {\"n\": %zu, \"m\": %zu, \"nnz_a\": %lld, "
                 "\"nnz_p\": %lld, \"horizon\": %zu},\n",
                 n, m, static_cast<long long>(problem.a.nnz()),
                 static_cast<long long>(problem.p.nnz()), kHorizon);
    std::fprintf(json, "  \"simd\": {\"detected\": \"%s\", \"active\": \"%s\"},\n",
                 simd::tier_name(simd::detected_tier()), simd::tier_name(entry_tier));
    std::fprintf(json,
                 "  \"solver\": {\n    \"cold\": {\"wall_ms\": %.3f, \"iterations\": %d, "
                 "\"hot_loop_allocations\": %lld},\n",
                 cold_ms, cold.iterations, cold.info.hot_loop_allocations);
    std::fprintf(json,
                 "    \"warm\": {\"wall_ms\": %.3f, \"iterations\": %d, "
                 "\"hot_loop_allocations\": %lld, \"ns_per_iteration\": %.0f, "
                 "\"factorization_skipped\": %s},\n",
                 warm_ms, warm.iterations, warm.info.hot_loop_allocations,
                 warm_ns_per_iter, warm.info.factorization_skipped ? "true" : "false");
    std::fprintf(json,
                 "    \"obs\": {\"admm_allocs\": %lld, \"admm_spmv_ns\": %lld, "
                 "\"admm_spmv_gb_s\": %.2f}\n  },\n",
                 obs_allocs, obs_spmv_ns, obs_spmv_gb_s);
    std::fprintf(json,
                 "  \"ldlt\": {\"dim\": %d, \"nnz_kkt\": %lld, \"l_nnz\": %lld, "
                 "\"cold_factor_ms\": %.3f, \"solve_ns\": %.0f},\n",
                 dim, static_cast<long long>(kkt.nnz()), l_nnz, cold_factor_ms, solve_ns);
    std::fprintf(json,
                 "  \"spmv\": {\"reps\": %d,\n    \"csc_at\": {\"wall_ms\": %.3f, "
                 "\"gb_s\": %.2f},\n",
                 kSpmvReps, csc_at_ms, gbps(problem.a, csc_at_ms, kSpmvReps));
    std::fprintf(json, "    \"sell\": {");
    for (std::size_t k = 0; k < tier_spmv.size(); ++k) {
      std::fprintf(json,
                   "%s\n      \"%s\": {\"ax\": {\"wall_ms\": %.3f, \"gb_s\": %.2f}, "
                   "\"at\": {\"wall_ms\": %.3f, \"gb_s\": %.2f}}",
                   k > 0 ? "," : "", simd::tier_name(tier_spmv[k].tier),
                   tier_spmv[k].ax_ms, gbps(problem.a, tier_spmv[k].ax_ms, kSpmvReps),
                   tier_spmv[k].at_ms, gbps(problem.a, tier_spmv[k].at_ms, kSpmvReps));
    }
    std::fprintf(json, "\n    },\n    \"sell_bit_identical\": %s,\n",
                 sell_identical ? "true" : "false");
    std::fprintf(json,
                 "    \"vector_speedup\": %.3f,\n    \"vector_speedup_min\": %.2f\n  }\n}\n",
                 vector_speedup, vector_speedup_min);
    std::fclose(json);
  }

  // Gate: SELL products bitwise equal to the CSC ones on every tier, the
  // machine-aware vector SpMV floor (0.0 when no vector ISA — then it never
  // fails), zero hot-loop allocations in the warm solve, both solves
  // reaching optimality and the cold factor succeeding.
  const bool ok = sell_identical && vector_speedup >= vector_speedup_min &&
                  warm.info.hot_loop_allocations == 0 && solves_ok && factor_ok;
  std::printf("\n# gate: spmv vector x%.2f (>= %.2f), warm-solve hot-loop allocs %lld (== 0), "
              "sell_bit_identical %s, solves %s, cold factor %s -- %s\n",
              vector_speedup, vector_speedup_min, warm.info.hot_loop_allocations,
              sell_identical ? "true" : "false", solves_ok ? "ok" : "FAILED",
              factor_ok ? "ok" : "FAILED", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
