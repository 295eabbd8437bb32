// Micro-benchmark of the ADMM hot-loop kernels (BENCH_admm.json).
//
// Four experiments on a fig06-scale window QP (the Section VII environment,
// 4 data centers x 24 cities, prediction horizon K = 20):
//
//  1. Kernel A/B: the pre-PR iteration body (per-iteration result-vector
//     allocations, CSC products, scalar loops with in-loop divisions) against
//     the fused workspace path (AdmmWorkspace buffers, vector_ops kernels,
//     SELL-mirror products), run once per AVAILABLE SIMD tier (scalar /
//     avx2 / avx512, forced via simd::set_active_tier; the SELL products run
//     on every tier, exactly like the solver). All runs consume identical synthetic
//     KKT-solve outputs — the triangular solve itself is excluded, it is
//     shared by both paths — so the final iterates must be BIT-identical on
//     EVERY tier; the speedup is the iteration-throughput gate (>= 1.3x).
//  2. Full-solver timing: a cold solve (structure build) and a warm re-solve
//     (structure + factorization reuse) with ns/iteration and the alloc-probe
//     count of heap allocations inside the hot loop. This binary installs
//     operator new/delete hooks, so the warm count must be exactly zero.
//  3. SpMV bandwidth: cold CSC A^T y (allocating, column-gather) vs the SELL
//     mirrors' A x and A^T y on each tier, in effective GB/s with
//     bytes = 12 * nnz + 8 * (rows + cols) per product. On hardware with a
//     vector tier, the best vector SELL pair (A x + A^T y) must beat the
//     scalar SELL pair by >= 1.25x (the floor travels as
//     spmv.vector_speedup_min, 0.0 — i.e. informational — when no vector ISA
//     is available).
//  4. Cold LDL^T: SparseLdlt::factor on the solver's KKT matrix, ordering
//     and symbolic analysis included (best of a few fresh factorizations) —
//     the setup cost a structure change or a new polish active set pays.
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
#include <span>
#include <vector>

#include "common/alloc_probe.hpp"
#include "dspp/window_program.hpp"
#include "linalg/simd_dispatch.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "linalg/sparse_simd.hpp"
#include "linalg/vector_ops.hpp"
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
using gp::qp::kInfinity;

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

/// Deterministic synthetic KKT-solve output: what both kernel paths consume
/// in place of the (shared, excluded) triangular solve. splitmix64-style.
Vector synth_solution(std::size_t size, std::uint64_t seed) {
  Vector out(size);
  std::uint64_t s = seed;
  for (double& v : out) {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    v = static_cast<double>((z ^ (z >> 31)) >> 11) * 0x1.0p-53 - 0.5;
  }
  return out;
}

/// Pre-PR max-norm: single running maximum (a ~4-cycle loop-carried chain),
/// exactly as linalg::norm_inf was written before the multi-lane rewrite.
double legacy_norm_inf(const Vector& a) {
  double best = 0.0;
  for (double v : a) best = std::max(best, std::abs(v));
  return best;
}

/// Pre-PR CSC A^T x: per-term accumulation without the zero-term skip the
/// library kernels gained in this change (the values agree bitwise unless a
/// product underflows to a signed zero, which the bit-identity check below
/// would catch).
Vector legacy_multiply_transposed(const gp::linalg::SparseMatrix& a, const Vector& x) {
  Vector y(static_cast<std::size_t>(a.cols()), 0.0);
  const auto col_ptr = a.col_ptr();
  const auto row_idx = a.row_idx();
  const auto values = a.values();
  for (std::int32_t c = 0; c < a.cols(); ++c) {
    double acc = 0.0;
    for (std::int32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      acc += values[p] * x[static_cast<std::size_t>(row_idx[p])];
    }
    y[static_cast<std::size_t>(c)] = acc;
  }
  return y;
}

/// Final iterates plus a checksum over every residual/certificate scalar the
/// run produced; the legacy and fused runs must agree on all of it bitwise.
struct KernelRun {
  Vector x, z, y;
  double sink = 0.0;
  double wall_ms = 0.0;
  long long loop_allocs = 0;
  int iterations = 0;
};

bool bit_identical(const KernelRun& a, const KernelRun& b) {
  return a.x == b.x && a.z == b.z && a.y == b.y && a.sink == b.sink;
}

/// The pre-PR iteration body: a faithful transcription of the hot loop as it
/// stood before the workspace refactor — fresh result vectors from
/// SparseMatrix::multiply / multiply_transposed / project_box every
/// iteration, and residual scalings recomputed as 1/e_i, 1/d_j in-loop.
KernelRun run_legacy(const gp::qp::QpProblem& problem, const Vector& rho,
                     const Vector& e_scale, const Vector& d_scale, double cost_scale,
                     const std::vector<Vector>& solves, int iters) {
  namespace linalg = gp::linalg;
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  KernelRun run;
  Vector x(n, 0.0), z(m, 0.0), y(m, 0.0);
  Vector x_prev(n, 0.0), y_prev(m, 0.0);
  Vector rhs(n + m, 0.0);
  double sink = 0.0;

  const auto start = Clock::now();
  const long long allocs_before = gp::alloc_probe_count();
  for (int iteration = 0; iteration < iters; ++iteration) {
    x_prev = x;
    y_prev = y;

    for (std::size_t j = 0; j < n; ++j) rhs[j] = gp::qp::kAdmmSigma * x[j] - problem.q[j];
    for (std::size_t i = 0; i < m; ++i) rhs[n + i] = z[i] - y[i] / rho[i];
    // Stand-in for kkt.solve_in_place(rhs): identical bytes on both paths.
    const Vector& solved = solves[static_cast<std::size_t>(iteration) % solves.size()];
    std::copy(solved.begin(), solved.end(), rhs.begin());

    Vector z_tilde(m);
    for (std::size_t i = 0; i < m; ++i) z_tilde[i] = z[i] + (rhs[n + i] - y[i]) / rho[i];

    const double alpha = gp::qp::kAdmmAlpha;
    for (std::size_t j = 0; j < n; ++j) x[j] = alpha * rhs[j] + (1.0 - alpha) * x[j];
    Vector z_candidate(m);
    for (std::size_t i = 0; i < m; ++i) {
      z_candidate[i] = alpha * z_tilde[i] + (1.0 - alpha) * z[i] + y[i] / rho[i];
    }
    const Vector z_next = linalg::project_box(z_candidate, problem.lower, problem.upper);
    for (std::size_t i = 0; i < m; ++i) y[i] = rho[i] * (z_candidate[i] - z_next[i]);
    z = z_next;

    // Residuals, every iteration (check cadence 1 keeps the A/B symmetric).
    const Vector ax = problem.a.multiply(x);
    const Vector px = problem.p.multiply(x);
    const Vector aty = legacy_multiply_transposed(problem.a, y);
    double prim_res = 0.0, prim_norm = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double inv_e = 1.0 / e_scale[i];
      prim_res = std::max(prim_res, std::abs(ax[i] - z[i]) * inv_e);
      prim_norm = std::max({prim_norm, std::abs(ax[i]) * inv_e, std::abs(z[i]) * inv_e});
    }
    double dual_res = 0.0, dual_norm = 0.0;
    const double inv_c = 1.0 / cost_scale;
    for (std::size_t j = 0; j < n; ++j) {
      const double inv_d = 1.0 / d_scale[j];
      dual_res = std::max(dual_res, std::abs(px[j] + problem.q[j] + aty[j]) * inv_d * inv_c);
      dual_norm = std::max({dual_norm, std::abs(px[j]) * inv_d * inv_c,
                            std::abs(aty[j]) * inv_d * inv_c,
                            std::abs(problem.q[j]) * inv_d * inv_c});
    }
    sink += prim_res + prim_norm + dual_res + dual_norm;

    // Infeasibility-certificate products (no early exit: checksum instead).
    Vector delta_y(m), delta_x(n);
    for (std::size_t i = 0; i < m; ++i) delta_y[i] = y[i] - y_prev[i];
    for (std::size_t j = 0; j < n; ++j) delta_x[j] = x[j] - x_prev[j];
    const double delta_y_norm = legacy_norm_inf(delta_y);
    if (delta_y_norm > gp::qp::kAdmmEpsInfeasible) {
      const Vector at_dy = legacy_multiply_transposed(problem.a, delta_y);
      double support = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const double dy = delta_y[i];
        if (dy > 0 && problem.upper[i] != kInfinity) support += problem.upper[i] * dy;
        if (dy < 0 && problem.lower[i] != -kInfinity) support += problem.lower[i] * dy;
      }
      sink += legacy_norm_inf(at_dy) + support;
    }
    const double delta_x_norm = legacy_norm_inf(delta_x);
    if (delta_x_norm > gp::qp::kAdmmEpsInfeasible) {
      const Vector p_dx = problem.p.multiply(delta_x);
      const Vector a_dx = problem.a.multiply(delta_x);
      sink += legacy_norm_inf(p_dx) + legacy_norm_inf(a_dx) +
              linalg::dot(problem.q, delta_x);
    }
  }
  run.loop_allocs = gp::alloc_probe_count() - allocs_before;
  run.wall_ms = ms_since(start);
  run.x = std::move(x);
  run.z = std::move(z);
  run.y = std::move(y);
  run.sink = sink;
  run.iterations = iters;
  return run;
}

/// The post-PR iteration body: AdmmWorkspace buffers, fused vector_ops
/// kernels, SELL-mirror products (built outside the timed loop), reciprocal
/// scalings hoisted out of the loop. Must reproduce run_legacy bit-for-bit.
KernelRun run_fused(const gp::qp::QpProblem& problem, const Vector& rho,
                    const Vector& e_scale, const Vector& d_scale, double cost_scale,
                    const std::vector<Vector>& solves, int iters) {
  namespace linalg = gp::linalg;
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  KernelRun run;
  gp::qp::AdmmWorkspace ws;
  ws.resize(n, m);
  gp::linalg::SellMirror a_sell, at_sell;
  a_sell.build(problem.a);
  at_sell.build_transposed(problem.a);
  for (std::size_t j = 0; j < n; ++j) ws.inv_d[j] = 1.0 / d_scale[j];
  for (std::size_t i = 0; i < m; ++i) ws.inv_e[i] = 1.0 / e_scale[i];
  const double inv_c = 1.0 / cost_scale;
  const std::span<const double> rhs_x(ws.rhs.data(), n);
  const std::span<const double> rhs_nu(ws.rhs.data() + n, m);
  double sink = 0.0;

  const auto start = Clock::now();
  const long long allocs_before = gp::alloc_probe_count();
  for (int iteration = 0; iteration < iters; ++iteration) {
    for (std::size_t j = 0; j < n; ++j) ws.rhs[j] = gp::qp::kAdmmSigma * ws.x[j] - problem.q[j];
    for (std::size_t i = 0; i < m; ++i) {
      const double yr = ws.y[i] / rho[i];
      ws.y_over_rho[i] = yr;
      ws.rhs[n + i] = ws.z[i] - yr;
    }
    const Vector& solved = solves[static_cast<std::size_t>(iteration) % solves.size()];
    std::copy(solved.begin(), solved.end(), ws.rhs.begin());

    linalg::admm_z_tilde(ws.z, rhs_nu, ws.y, rho, ws.z_tilde);

    const double alpha = gp::qp::kAdmmAlpha;
    const double delta_x_norm = linalg::axpby_delta(alpha, rhs_x, 1.0 - alpha, ws.x, ws.delta_x);
    linalg::admm_z_candidate_cached(alpha, ws.z_tilde, ws.z, ws.y_over_rho, ws.z_candidate);
    linalg::project_box_into(ws.z_candidate, problem.lower, problem.upper, ws.z_next);
    const double delta_y_norm =
        linalg::admm_dual_update_delta(rho, ws.z_candidate, ws.z_next, ws.y, ws.delta_y);
    std::swap(ws.z, ws.z_next);

    a_sell.multiply_into(1.0, ws.x, ws.ax);
    std::fill(ws.px.begin(), ws.px.end(), 0.0);
    problem.p.multiply_accumulate(1.0, ws.x, ws.px);
    at_sell.multiply_into(1.0, ws.y, ws.aty);

    double prim_res = 0.0, prim_norm = 0.0;
    linalg::inf_norm_scaled_residual(ws.ax, ws.z, ws.inv_e, prim_res, prim_norm);
    double dual_res = 0.0, dual_norm = 0.0;
    linalg::inf_norm_scaled_residual3(ws.px, problem.q, ws.aty, ws.inv_d, inv_c, dual_res,
                                      dual_norm);
    sink += prim_res + prim_norm + dual_res + dual_norm;

    if (delta_y_norm > gp::qp::kAdmmEpsInfeasible) {
      at_sell.multiply_into(1.0, ws.delta_y, ws.at_dy);
      double support = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const double dy = ws.delta_y[i];
        if (dy > 0 && problem.upper[i] != kInfinity) support += problem.upper[i] * dy;
        if (dy < 0 && problem.lower[i] != -kInfinity) support += problem.lower[i] * dy;
      }
      sink += linalg::norm_inf(ws.at_dy) + support;
    }
    if (delta_x_norm > gp::qp::kAdmmEpsInfeasible) {
      std::fill(ws.p_dx.begin(), ws.p_dx.end(), 0.0);
      problem.p.multiply_accumulate(1.0, ws.delta_x, ws.p_dx);
      a_sell.multiply_into(1.0, ws.delta_x, ws.a_dx);
      sink += linalg::norm_inf(ws.p_dx) + linalg::norm_inf(ws.a_dx) +
              linalg::dot(problem.q, ws.delta_x);
    }
  }
  run.loop_allocs = gp::alloc_probe_count() - allocs_before;
  run.wall_ms = ms_since(start);
  run.x = ws.x;
  run.z = ws.z;
  run.y = ws.y;
  run.sink = sink;
  run.iterations = iters;
  return run;
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
  constexpr int kIters = 300;
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

  // Per-row rho exactly as the solver initializes it.
  Vector rho(m, gp::qp::kAdmmRho);
  for (std::size_t i = 0; i < m; ++i) {
    const bool equality = problem.lower[i] == problem.upper[i];
    const bool unbounded = problem.lower[i] == -kInfinity && problem.upper[i] == kInfinity;
    if (equality) rho[i] = gp::qp::kAdmmRho * gp::qp::kAdmmRhoEqualityScale;
    if (unbounded) rho[i] = gp::qp::kAdmmRho * 1e-3;
  }
  // Identity residual scaling: the legacy path still pays its in-loop
  // divisions, the fused path its hoisted reciprocals, and both agree.
  const Vector e_scale(m, 1.0), d_scale(n, 1.0);
  // A small bank of synthetic KKT-solve outputs keeps the iterates moving
  // without either path paying for an actual triangular solve.
  std::vector<Vector> solves;
  for (std::uint64_t k = 0; k < 8; ++k) solves.push_back(synth_solution(n + m, 41 + k));

  std::printf("# ADMM kernel micro-bench: fig06-scale window QP "
              "(4 DCs x 24 cities, K=%zu): n=%zu m=%zu nnz(A)=%lld nnz(P)=%lld\n",
              kHorizon, n, m, static_cast<long long>(problem.a.nnz()),
              static_cast<long long>(problem.p.nnz()));
  std::printf("# simd: detected %s, active %s, tiers:",
              simd::tier_name(simd::detected_tier()), simd::tier_name(entry_tier));
  for (simd::Tier t : tiers) std::printf(" %s", simd::tier_name(t));
  std::printf("\n");

  // --- 1. Kernel A/B, best of kReps timed runs of kIters iterations, the
  //        fused path once per available SIMD tier. Reps interleave the
  //        variants so they see the same cache/frequency conditions. ---
  struct TierAb {
    simd::Tier tier = simd::Tier::kScalar;
    KernelRun run;
  };
  KernelRun legacy;
  std::vector<TierAb> tier_ab(tiers.size());
  for (int rep = 0; rep < kReps; ++rep) {
    KernelRun l = run_legacy(problem, rho, e_scale, d_scale, 1.0, solves, kIters);
    if (rep == 0 || l.wall_ms < legacy.wall_ms) legacy = std::move(l);
    for (std::size_t k = 0; k < tiers.size(); ++k) {
      simd::set_active_tier(tiers[k]);
      KernelRun f = run_fused(problem, rho, e_scale, d_scale, 1.0, solves, kIters);
      tier_ab[k].tier = tiers[k];
      if (rep == 0 || f.wall_ms < tier_ab[k].run.wall_ms) tier_ab[k].run = std::move(f);
    }
  }
  simd::set_active_tier(entry_tier);

  // Every tier must reproduce the legacy iterates bit-for-bit.
  bool kernels_identical = std::isfinite(legacy.sink);
  for (const TierAb& ab : tier_ab) {
    kernels_identical = kernels_identical && bit_identical(legacy, ab.run);
  }
  // The headline fused numbers (and the 1.3x gate) use the ENTRY tier — the
  // path a real solve on this machine/configuration takes.
  const KernelRun* fused_ptr = &tier_ab.front().run;
  for (const TierAb& ab : tier_ab) {
    if (ab.tier == entry_tier) fused_ptr = &ab.run;
  }
  const KernelRun& fused = *fused_ptr;
  const double speedup = fused.wall_ms > 0.0 ? legacy.wall_ms / fused.wall_ms : 0.0;
  const double legacy_ns = legacy.wall_ms * 1e6 / kIters;
  const double fused_ns = fused.wall_ms * 1e6 / kIters;

  gp::scenario::print_series_header("kernel path: ns/iteration, allocs/iteration",
                                 {"path", "ns_per_iter", "allocs_per_iter"});
  std::printf("legacy,%.0f,%.1f\n", legacy_ns,
              static_cast<double>(legacy.loop_allocs) / kIters);
  for (const TierAb& ab : tier_ab) {
    std::printf("fused_%s,%.0f,%.1f\n", simd::tier_name(ab.tier),
                ab.run.wall_ms * 1e6 / kIters,
                static_cast<double>(ab.run.loop_allocs) / kIters);
  }
  std::printf("# speedup x%.2f (entry tier %s), bit_identical %s (all tiers)\n",
              speedup, simd::tier_name(entry_tier),
              kernels_identical ? "true" : "false");

  // --- 2. Full solver: cold solve, then a warm structure-cache re-solve. ---
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

  // --- 3. SpMV bandwidth: cold CSC A^T vs the SELL mirrors on every tier
  //        (both orientations, bitwise-checked against the CSC products). ---
  gp::linalg::SellMirror a_sell, at_sell;
  a_sell.build(problem.a);
  at_sell.build_transposed(problem.a);
  const Vector yv = synth_solution(m, 7);
  const Vector xv = synth_solution(n, 9);
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

  // --- 4. Cold LDL^T factorization of the solver's KKT pattern
  //        [[P + sigma I, A^T], [A, -diag(1/rho)]] (upper triangle, built
  //        from the unscaled P and A: the ordering and symbolic analysis
  //        see only the pattern). ---
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
    kkt_triplets.push_back({row, row, -1.0 / rho[i]});
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
    Vector rhs(static_cast<std::size_t>(dim));
    for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = std::sin(static_cast<double>(i) + 1.0);
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
    std::fprintf(json, "  \"kernels\": {\n    \"iterations\": %d,\n", kIters);
    std::fprintf(json,
                 "    \"legacy\": {\"wall_ms\": %.3f, \"ns_per_iteration\": %.0f, "
                 "\"allocs_per_iteration\": %.1f},\n",
                 legacy.wall_ms, legacy_ns,
                 static_cast<double>(legacy.loop_allocs) / kIters);
    std::fprintf(json,
                 "    \"fused\": {\"wall_ms\": %.3f, \"ns_per_iteration\": %.0f, "
                 "\"allocs_per_iteration\": %.1f},\n",
                 fused.wall_ms, fused_ns, static_cast<double>(fused.loop_allocs) / kIters);
    std::fprintf(json, "    \"tiers\": {");
    for (std::size_t k = 0; k < tier_ab.size(); ++k) {
      std::fprintf(json,
                   "%s\n      \"%s\": {\"wall_ms\": %.3f, \"ns_per_iteration\": %.0f, "
                   "\"bit_identical\": %s}",
                   k > 0 ? "," : "", simd::tier_name(tier_ab[k].tier),
                   tier_ab[k].run.wall_ms, tier_ab[k].run.wall_ms * 1e6 / kIters,
                   bit_identical(legacy, tier_ab[k].run) ? "true" : "false");
    }
    std::fprintf(json, "\n    },\n");
    std::fprintf(json, "    \"speedup\": %.3f,\n    \"bit_identical\": %s\n  },\n",
                 speedup, kernels_identical ? "true" : "false");
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

  // Gate: cross-tier bit-identity (A/B and SELL products), the >= 1.3x
  // kernel throughput target, the machine-aware vector SpMV floor (0.0 when
  // no vector ISA — then it never fails), zero fused hot-loop allocations (both in the A/B and in the real warm
  // solve), both real solves reaching optimality and the cold factor
  // succeeding.
  bool tier_allocs_zero = true;
  for (const TierAb& ab : tier_ab) {
    tier_allocs_zero = tier_allocs_zero && ab.run.loop_allocs == 0;
  }
  const bool ok = kernels_identical && sell_identical && speedup >= 1.3 &&
                  vector_speedup >= vector_speedup_min && tier_allocs_zero &&
                  warm.info.hot_loop_allocations == 0 && solves_ok && factor_ok;
  std::printf("\n# gate: speedup x%.2f (>= 1.3), spmv vector x%.2f (>= %.2f), "
              "fused loop allocs zero on all tiers %s, "
              "warm-solve hot-loop allocs %lld (== 0), bit_identical %s, "
              "sell_bit_identical %s, solves %s, cold factor %s -- %s\n",
              speedup, vector_speedup, vector_speedup_min,
              tier_allocs_zero ? "true" : "false", warm.info.hot_loop_allocations,
              kernels_identical ? "true" : "false", sell_identical ? "true" : "false",
              solves_ok ? "ok" : "FAILED", factor_ok ? "ok" : "FAILED",
              ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
