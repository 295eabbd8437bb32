// Tests for the allocation-free ADMM hot loop and its kernels: bitwise
// equivalence of the fused/multi-lane vector_ops kernels against naive
// scalar transcriptions, the zero-heap-allocation contract of the warm
// iteration loop, and the cross-tier SIMD contract — every production
// kernel and both SELL SpMV orientations bit-identical on every available
// tier (scalar/avx2/avx512) and to the CSC reference products, with the
// tail sweep n = 0..17 covering every vector-remainder shape, full ADMM
// solves (a random QP and the paper_full MPC window) bit-identical across
// tiers, and the exponential-draw kernel neg_log_div within 1 ulp of
// std::log.
//
// This binary installs counting operator new / operator delete so the
// solver's SolveInfo::hot_loop_allocations field reports real measurements
// (the library never installs the hooks itself — see common/alloc_probe.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/alloc_probe.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dspp/separable_window.hpp"
#include "dspp/window_program.hpp"
#include "linalg/simd_dispatch.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/sparse_simd.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"
#include "qp/admm_solver.hpp"
#include "scenario/registry.hpp"

// gcc tracks pointers from the replaced (malloc-backed) operator new into
// the replaced (free-backed) operator delete when it inlines gtest's factory
// cleanup paths and misreads the intended malloc/free pairing as mismatched;
// the runtime pairing is consistent, so the warning is a false positive here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
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
// The nothrow forms too (std::stable_sort's temporary buffer takes one and
// returns it through the sized delete below), so every new/delete pair
// stays on malloc/free.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  gp::alloc_probe_bump();
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  gp::alloc_probe_bump();
  return std::malloc(size ? size : 1);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace gp {
namespace {

using linalg::SparseMatrix;
using linalg::Triplet;
using linalg::Vector;
using qp::kInfinity;

SparseMatrix random_sparse(std::int32_t rows, std::int32_t cols, double density, Rng& rng) {
  std::vector<Triplet> triplets;
  for (std::int32_t r = 0; r < rows; ++r)
    for (std::int32_t c = 0; c < cols; ++c)
      if (rng.uniform() < density) triplets.push_back({r, c, rng.uniform(-1.0, 1.0)});
  return SparseMatrix::from_triplets(rows, cols, triplets);
}

/// Random vector with a meaningful fraction of EXACT zeros, so the products'
/// zero-term skip path is exercised, not just the dense path.
Vector random_with_zeros(std::size_t size, Rng& rng) {
  Vector v(size);
  for (auto& x : v) x = rng.uniform() < 0.35 ? 0.0 : rng.uniform(-2.0, 2.0);
  return v;
}

/// Bitwise (0 ULP) equality — operator== on doubles would conflate +0.0 with
/// -0.0 and is therefore too weak for the determinism contract.
void expect_bits_equal(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  if (a.empty()) return;  // an empty vector's data() may be null: not a memcmp argument
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

void expect_bits_equal(double a, double b) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  EXPECT_EQ(ba, bb);
}

/// Strictly convex QP with equality, inequality, and unbounded rows, built
/// around a feasible point so the ADMM solve converges.
qp::QpProblem random_feasible_qp(std::size_t n, std::size_t m, Rng& rng) {
  qp::QpProblem problem;
  std::vector<Triplet> p_triplets;
  for (std::size_t i = 0; i < n; ++i) {
    p_triplets.push_back(
        {static_cast<std::int32_t>(i), static_cast<std::int32_t>(i), 2.0 + rng.uniform()});
  }
  problem.p = SparseMatrix::from_triplets(static_cast<std::int32_t>(n),
                                          static_cast<std::int32_t>(n), p_triplets);
  problem.q.assign(n, 0.0);
  for (auto& v : problem.q) v = rng.uniform(-1.0, 1.0);
  std::vector<Triplet> a_triplets;
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if (rng.uniform() < 0.4) {
        a_triplets.push_back({static_cast<std::int32_t>(r), static_cast<std::int32_t>(c),
                              rng.uniform(-1.0, 1.0)});
      }
  problem.a = SparseMatrix::from_triplets(static_cast<std::int32_t>(m),
                                          static_cast<std::int32_t>(n), a_triplets);
  Vector x0(n);
  for (auto& v : x0) v = rng.uniform(-1.0, 1.0);
  const Vector ax0 = problem.a.multiply(x0);
  problem.lower.assign(m, 0.0);
  problem.upper.assign(m, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    problem.lower[r] = ax0[r] - rng.uniform(0.1, 1.0);
    problem.upper[r] = ax0[r] + rng.uniform(0.1, 1.0);
  }
  return problem;
}

// -------------------------------------- multi-lane kernels vs scalar loops

TEST(NormKernels, MultiLaneMatchesScalarReference) {
  for (std::uint64_t seed = 41; seed <= 44; ++seed) {
    Rng rng(seed);
    // Sizes straddling the 4-lane unroll boundary, including the tail cases.
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 37));
    const Vector a = random_with_zeros(size, rng);

    double ref = 0.0;
    for (std::size_t i = 0; i < size; ++i) ref = std::max(ref, std::abs(a[i]));
    expect_bits_equal(ref, linalg::norm_inf(a));
  }
}

TEST(NormKernels, ResidualPairsMatchSeparateReductions) {
  for (std::uint64_t seed = 51; seed <= 54; ++seed) {
    Rng rng(seed);
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 33));
    const Vector a = random_with_zeros(size, rng);
    const Vector b = random_with_zeros(size, rng);
    const Vector c = random_with_zeros(size, rng);
    Vector scale(size);
    for (auto& v : scale) v = rng.uniform(0.25, 4.0);
    const double post = rng.uniform(0.25, 4.0);

    // Each fused pair against two separate single-chain reductions.
    double ref_res = 0.0, ref_norm = 0.0;
    for (std::size_t i = 0; i < size; ++i) {
      ref_res = std::max(ref_res, std::abs(a[i] - b[i]) * scale[i]);
    }
    for (std::size_t i = 0; i < size; ++i) {
      ref_norm = std::max(ref_norm, std::max(std::abs(a[i]) * scale[i],
                                             std::abs(b[i]) * scale[i]));
    }
    double res = 0.0, norm = 0.0;
    linalg::inf_norm_scaled_residual(a, b, scale, res, norm);
    expect_bits_equal(ref_res, res);
    expect_bits_equal(ref_norm, norm);

    ref_res = 0.0;
    ref_norm = 0.0;
    for (std::size_t i = 0; i < size; ++i) {
      ref_res = std::max(ref_res, std::abs(a[i] + b[i] + c[i]) * scale[i] * post);
    }
    for (std::size_t i = 0; i < size; ++i) {
      ref_norm = std::max({ref_norm, std::abs(a[i]) * scale[i], std::abs(b[i]) * scale[i],
                           std::abs(c[i]) * scale[i]});
    }
    linalg::inf_norm_scaled_residual3(a, b, c, scale, post, res, norm);
    expect_bits_equal(ref_res, res);
    expect_bits_equal(ref_norm * post, norm);
  }
}

TEST(UpdateKernels, DeltaVariantsMatchPlainKernelPlusExplicitDiff) {
  for (std::uint64_t seed = 61; seed <= 64; ++seed) {
    Rng rng(seed);
    const auto size = static_cast<std::size_t>(rng.uniform_int(1, 35));
    const Vector src = random_with_zeros(size, rng);
    const Vector zc = random_with_zeros(size, rng);
    const Vector zn = random_with_zeros(size, rng);
    Vector rho(size);
    for (auto& v : rho) v = rng.uniform(0.01, 100.0);
    const double alpha = 1.6;

    Vector x_plain = random_with_zeros(size, rng);
    Vector x_fused = x_plain;
    const Vector x_before = x_plain;
    linalg::axpby(alpha, src, 1.0 - alpha, x_plain);
    Vector delta_ref(size), delta(size);
    double ref_norm = 0.0;
    for (std::size_t i = 0; i < size; ++i) {
      delta_ref[i] = x_plain[i] - x_before[i];
      ref_norm = std::max(ref_norm, std::abs(delta_ref[i]));
    }
    const double fused_norm = linalg::axpby_delta(alpha, src, 1.0 - alpha, x_fused, delta);
    expect_bits_equal(x_plain, x_fused);
    expect_bits_equal(delta_ref, delta);
    expect_bits_equal(ref_norm, fused_norm);

    Vector y_plain = random_with_zeros(size, rng);
    Vector y_fused = y_plain;
    const Vector y_before = y_plain;
    linalg::admm_dual_update(rho, zc, zn, y_plain);
    ref_norm = 0.0;
    for (std::size_t i = 0; i < size; ++i) {
      delta_ref[i] = y_plain[i] - y_before[i];
      ref_norm = std::max(ref_norm, std::abs(delta_ref[i]));
    }
    const double y_norm = linalg::admm_dual_update_delta(rho, zc, zn, y_fused, delta);
    expect_bits_equal(y_plain, y_fused);
    expect_bits_equal(delta_ref, delta);
    expect_bits_equal(ref_norm, y_norm);
  }
}

TEST(UpdateKernels, CachedZCandidateMatchesUncached) {
  Rng rng(71);
  const std::size_t size = 29;
  const Vector z_tilde = random_with_zeros(size, rng);
  const Vector z = random_with_zeros(size, rng);
  const Vector y = random_with_zeros(size, rng);
  Vector rho(size);
  for (auto& v : rho) v = rng.uniform(0.01, 100.0);
  Vector y_over_rho(size);
  for (std::size_t i = 0; i < size; ++i) y_over_rho[i] = y[i] / rho[i];

  Vector plain(size), cached(size);
  linalg::admm_z_candidate(1.6, z_tilde, z, y, rho, plain);
  linalg::admm_z_candidate_cached(1.6, z_tilde, z, y_over_rho, cached);
  expect_bits_equal(plain, cached);
}

// ------------------------------------------------ allocation-free hot loop

TEST(AdmmHotLoop, WarmResolveMakesZeroHeapAllocations) {
  Rng rng(81);
  const qp::QpProblem problem = random_feasible_qp(60, 45, rng);
  qp::AdmmSolver solver;

  const auto cold = solver.solve(problem);
  ASSERT_EQ(cold.status, qp::SolveStatus::kOptimal);
  // The hooks in this binary must actually be live, or the contract below
  // would pass vacuously.
  ASSERT_GT(alloc_probe_count(), 0);

  const auto warm = solver.solve(problem);
  ASSERT_EQ(warm.status, qp::SolveStatus::kOptimal);
  EXPECT_TRUE(warm.info.factorization_skipped);
  EXPECT_EQ(warm.info.hot_loop_allocations, 0)
      << "ADMM iteration loop allocated on a warm workspace";
}

TEST(SeparableWindowHotLoop, WarmSolveMakesZeroHeapAllocations) {
  // paper_full's MPC window: after the sizing solve, a warm separable solve
  // (shifted active sets, per-network workspaces) allocates nothing. An
  // armed tracer (GEOPLACE_TRACE, as in CI's obs-on job) appends every
  // closed span to its buffer, which is not the solver's allocation.
  if (obs::tracing_enabled()) obs::stop_tracing();
  const scenario::ScenarioBundle bundle = scenario::build(scenario::preset("paper_full"));
  const dspp::PairIndex pairs(bundle.model);
  dspp::WindowInputs inputs;
  inputs.initial_state.assign(pairs.num_pairs(), 1.0);
  for (std::size_t t = 0; t < 5; ++t) {
    inputs.demand.push_back(bundle.demand.mean_rates(static_cast<double>(t + 9)));
    inputs.price.push_back(bundle.prices.server_prices(static_cast<double>(t + 9)));
  }
  dspp::SeparableWindow separable(bundle.model, pairs);
  ASSERT_EQ(separable.solve(inputs, /*warm=*/true, 1), dspp::SeparableOutcome::kCertified);
  ASSERT_GT(alloc_probe_count(), 0);
  const long long before = alloc_probe_count();
  ASSERT_EQ(separable.solve(inputs, /*warm=*/true, 1), dspp::SeparableOutcome::kCertified);
  EXPECT_EQ(alloc_probe_count() - before, 0) << "a warm separable solve allocated";
}

TEST(AdmmHotLoop, AdaptiveRhoRefactorsStayAllocationFree) {
  // Scaling q by 100 after a first solve keeps the factor (same matrices,
  // same rho) but moves the residual balance enough that the adaptive rho
  // refactors inside the loop. The refactor refreshes both copies of L in
  // the buffers factor() sized, so the loop still allocates nothing.
  Rng rng(83);
  const qp::QpProblem problem = random_feasible_qp(60, 45, rng);
  qp::AdmmSolver solver;
  ASSERT_EQ(solver.solve(problem).status, qp::SolveStatus::kOptimal);
  ASSERT_GT(alloc_probe_count(), 0);
  qp::QpProblem scaled = problem;
  for (double& v : scaled.q) v *= 100.0;
  const auto result = solver.solve(scaled);
  ASSERT_EQ(result.status, qp::SolveStatus::kOptimal);
  ASSERT_TRUE(result.info.factorization_skipped);
  ASSERT_GE(result.info.factorizations, 1) << "no in-loop rho refactor to measure";
  EXPECT_EQ(result.info.hot_loop_allocations, 0);
}

TEST(AdmmHotLoop, WorkspaceReuseAcrossShrinkingProblemsStaysAllocationFree) {
  // A larger solve sizes the workspace; a smaller one must fit inside the
  // existing capacity (vector::assign reuses storage), so even its FIRST
  // iteration loop runs allocation-free after the sizing solve.
  Rng rng(91);
  const qp::QpProblem big = random_feasible_qp(60, 45, rng);
  const qp::QpProblem small = random_feasible_qp(30, 20, rng);
  qp::AdmmSolver solver;
  ASSERT_EQ(solver.solve(big).status, qp::SolveStatus::kOptimal);
  const auto result = solver.solve(small);
  ASSERT_EQ(result.status, qp::SolveStatus::kOptimal);
  EXPECT_EQ(result.info.hot_loop_allocations, 0);
}

// ------------------------------------------------- cross-tier SIMD contract

namespace simd = linalg::simd;

/// Restores the dispatch tier active at construction (the tests below pin
/// tiers; a failure mid-test must not leak a forced tier into later tests).
struct TierGuard {
  simd::Tier saved = simd::active_tier();
  ~TierGuard() { simd::set_active_tier(saved); }
};

std::vector<simd::Tier> available_tiers() {
  std::vector<simd::Tier> tiers;
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_available(t)) tiers.push_back(t);
  }
  return tiers;
}

/// Everything the production kernels produce for one input set; computed
/// per tier and compared bitwise against the scalar tier.
struct KernelOutputs {
  double norm = 0.0;
  double res = 0.0, res_norm = 0.0, res3 = 0.0, res3_norm = 0.0;
  double axpby_norm = 0.0, dual_norm = 0.0;
  Vector z_tilde, z_cand, boxed, x, delta_x, y, delta_y;
  Vector neg_log, neg_log_rate;
};

KernelOutputs run_kernel_suite(const Vector& a, const Vector& b, const Vector& c,
                               const Vector& scale, const Vector& rho,
                               const Vector& lower, const Vector& upper, double post,
                               const Vector& u) {
  const std::size_t size = a.size();
  KernelOutputs out;
  out.norm = linalg::norm_inf(a);
  linalg::inf_norm_scaled_residual(a, b, scale, out.res, out.res_norm);
  linalg::inf_norm_scaled_residual3(a, b, c, scale, post, out.res3, out.res3_norm);
  out.z_tilde.assign(size, -1.0);
  linalg::admm_z_tilde(a, b, c, rho, out.z_tilde);
  Vector y_over_rho(size);
  for (std::size_t i = 0; i < size; ++i) y_over_rho[i] = c[i] / rho[i];
  out.z_cand.assign(size, -1.0);
  linalg::admm_z_candidate_cached(1.6, out.z_tilde, a, y_over_rho, out.z_cand);
  out.boxed.assign(size, -1.0);
  linalg::project_box_into(out.z_cand, lower, upper, out.boxed);
  out.x = a;
  out.delta_x.assign(size, -1.0);
  out.axpby_norm = linalg::axpby_delta(1.6, b, -0.6, out.x, out.delta_x);
  out.y = c;
  out.delta_y.assign(size, -1.0);
  out.dual_norm = linalg::admm_dual_update_delta(rho, out.z_cand, out.boxed, out.y,
                                                 out.delta_y);
  out.neg_log.assign(u.size(), -1.0);
  linalg::neg_log_div(u, 1.0, out.neg_log);
  out.neg_log_rate = u;  // in place, as the request path runs it
  linalg::neg_log_div(out.neg_log_rate, post, out.neg_log_rate);
  return out;
}

void expect_outputs_bits_equal(const KernelOutputs& ref, const KernelOutputs& got) {
  expect_bits_equal(ref.norm, got.norm);
  expect_bits_equal(ref.res, got.res);
  expect_bits_equal(ref.res_norm, got.res_norm);
  expect_bits_equal(ref.res3, got.res3);
  expect_bits_equal(ref.res3_norm, got.res3_norm);
  expect_bits_equal(ref.axpby_norm, got.axpby_norm);
  expect_bits_equal(ref.dual_norm, got.dual_norm);
  expect_bits_equal(ref.z_tilde, got.z_tilde);
  expect_bits_equal(ref.z_cand, got.z_cand);
  expect_bits_equal(ref.boxed, got.boxed);
  expect_bits_equal(ref.x, got.x);
  expect_bits_equal(ref.delta_x, got.delta_x);
  expect_bits_equal(ref.y, got.y);
  expect_bits_equal(ref.delta_y, got.delta_y);
  expect_bits_equal(ref.neg_log, got.neg_log);
  expect_bits_equal(ref.neg_log_rate, got.neg_log_rate);
}

TEST(SimdTiers, KernelSuiteBitIdenticalAcrossTiersWithTailSweep) {
  TierGuard guard;
  const auto tiers = available_tiers();
  // n = 0 .. 2 * (widest vector) + 1 hits every remainder shape for both the
  // 4-lane and 8-lane kernels (full vectors, partial tails, empty input),
  // plus a few larger sizes for the steady state.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {64, 131});
  for (std::size_t size : sizes) {
    Rng rng(1000 + size);
    const Vector a = random_with_zeros(size, rng);
    const Vector b = random_with_zeros(size, rng);
    const Vector c = random_with_zeros(size, rng);
    Vector scale(size), rho(size), lower(size), upper(size);
    for (auto& v : scale) v = rng.uniform(0.25, 4.0);
    for (auto& v : rho) v = rng.uniform(0.01, 100.0);
    for (std::size_t i = 0; i < size; ++i) {
      lower[i] = rng.uniform() < 0.2 ? -kInfinity : rng.uniform(-1.0, 0.0);
      upper[i] = rng.uniform() < 0.2 ? kInfinity : rng.uniform(0.0, 1.0);
    }
    const double post = rng.uniform(0.25, 4.0);
    Vector u(size);
    rng.fill_uniform_open(u);

    ASSERT_EQ(simd::set_active_tier(simd::Tier::kScalar), simd::Tier::kScalar);
    const KernelOutputs ref = run_kernel_suite(a, b, c, scale, rho, lower, upper, post, u);
    for (simd::Tier t : tiers) {
      ASSERT_EQ(simd::set_active_tier(t), t);
      SCOPED_TRACE(std::string("tier=") + simd::tier_name(t) +
                   " n=" + std::to_string(size));
      expect_outputs_bits_equal(ref,
                                run_kernel_suite(a, b, c, scale, rho, lower, upper, post, u));
    }
  }
}

/// Distance in units in the last place between two finite doubles of the
/// same sign (+0 and -0 are equal: -log(1) comes out +0 from the kernel and
/// -0 from -std::log).
std::uint64_t ulp_distance(double a, double b) {
  if (a == b) return 0;
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ba > bb ? ba - bb : bb - ba;
}

TEST(SimdTiers, NegLogDivWithinOneUlpOfStdLog) {
  // The exponential-draw kernel's contract (vector_ops.hpp): -log(u) within
  // 1 ulp of -std::log(u) over the whole uniform range, on every tier, and
  // the quotient is exactly that log divided by the rate. One correctly
  // rounded divide after a 1-ulp log can land up to 2 ulp from
  // -std::log(u) / rate, never more.
  TierGuard guard;
  Rng rng(4242);
  Vector u(1'000'000);
  rng.fill_uniform_open(u);
  const double sqrt_half = std::sqrt(0.5);
  const double edges[] = {0x1p-53,
                          0.5,
                          1.0 - 0x1p-53,
                          std::nextafter(sqrt_half, 0.0),
                          sqrt_half,
                          std::nextafter(sqrt_half, 1.0),
                          0x1p-1022,
                          1.0};
  u.insert(u.end(), std::begin(edges), std::end(edges));
  for (simd::Tier t : available_tiers()) {
    ASSERT_EQ(simd::set_active_tier(t), t);
    SCOPED_TRACE(std::string("tier=") + simd::tier_name(t));
    Vector neg_log(u.size());
    linalg::neg_log_div(u, 1.0, neg_log);
    std::uint64_t worst = 0;
    for (std::size_t i = 0; i < u.size(); ++i) {
      const std::uint64_t d = ulp_distance(neg_log[i], -std::log(u[i]));
      EXPECT_LE(d, 1u) << "u=" << u[i];
      worst = std::max(worst, d);
    }
    EXPECT_LE(worst, 1u);
    for (const double rate : {100.0, 0.37}) {
      Vector out(u.size());
      linalg::neg_log_div(u, rate, out);
      for (std::size_t i = 0; i < u.size(); ++i) {
        ASSERT_EQ(out[i], neg_log[i] / rate) << "u=" << u[i] << " rate=" << rate;
        ASSERT_LE(ulp_distance(out[i], -std::log(u[i]) / rate), 2u)
            << "u=" << u[i] << " rate=" << rate;
      }
    }
  }
  EXPECT_THROW(linalg::neg_log_div(u, 0.0, u), PreconditionError);
}

TEST(SimdTiers, SellMirrorBothOrientationsMatchCscBitwise) {
  TierGuard guard;
  const auto tiers = available_tiers();
  // Shapes straddling the 8-row SELL chunk (partial last chunk, exactly one
  // chunk, many chunks) at densities that leave some rows entirely empty.
  const std::int32_t shapes[][2] = {{1, 1}, {7, 5}, {8, 8}, {9, 3}, {16, 24}, {40, 33}};
  for (const auto& shape : shapes) {
    Rng rng(3000 + static_cast<std::uint64_t>(shape[0]));
    const SparseMatrix a = random_sparse(shape[0], shape[1], 0.2, rng);
    linalg::SellMirror sell, sell_t;
    sell.build(a);
    sell_t.build_transposed(a);
    const Vector x = random_with_zeros(static_cast<std::size_t>(a.cols()), rng);
    const Vector y = random_with_zeros(static_cast<std::size_t>(a.rows()), rng);
    const double alpha = rng.uniform(-2.0, 2.0);

    Vector ref_ax(static_cast<std::size_t>(a.rows()), 0.0);
    a.multiply_accumulate(alpha, x, ref_ax);
    Vector ref_aty(static_cast<std::size_t>(a.cols()), 0.0);
    a.multiply_transposed_accumulate(alpha, y, ref_aty);

    for (simd::Tier t : tiers) {
      ASSERT_EQ(simd::set_active_tier(t), t);
      SCOPED_TRACE(std::string("tier=") + simd::tier_name(t) + " shape=" +
                   std::to_string(shape[0]) + "x" + std::to_string(shape[1]));
      Vector ax(static_cast<std::size_t>(a.rows()), -1.0);
      sell.multiply_into(alpha, x, ax);
      expect_bits_equal(ref_ax, ax);
      Vector aty(static_cast<std::size_t>(a.cols()), -1.0);
      sell_t.multiply_into(alpha, y, aty);
      expect_bits_equal(ref_aty, aty);
    }
  }
}

TEST(SimdTiers, SellMirrorUpdateValuesMatchesRebuild) {
  Rng rng(3100);
  const SparseMatrix a = random_sparse(20, 15, 0.3, rng);
  linalg::SellMirror sell;
  sell.build(a);

  SparseMatrix scaled = a;
  Vector row_scale(20), col_scale(15);
  for (auto& v : row_scale) v = rng.uniform(0.5, 2.0);
  for (auto& v : col_scale) v = rng.uniform(0.5, 2.0);
  scaled.scale_rows_cols(row_scale, col_scale);

  ASSERT_TRUE(sell.pattern_matches(scaled));
  sell.update_values(scaled);
  linalg::SellMirror rebuilt;
  rebuilt.build(scaled);
  const Vector x = random_with_zeros(15, rng);
  Vector updated(20, -1.0), fresh(20, -2.0);
  sell.multiply_into(1.0, x, updated);
  rebuilt.multiply_into(1.0, x, fresh);
  expect_bits_equal(fresh, updated);
  // A different shape (or orientation) must NOT pattern-match.
  const SparseMatrix other = random_sparse(15, 20, 0.3, rng);
  EXPECT_FALSE(sell.pattern_matches(other));
}

TEST(SimdTiers, SellMirrorDegenerateShapes) {
  TierGuard guard;
  // All-zero matrix (every row empty -> zero-width chunks) and an empty
  // pattern: products must still produce exact zeros on every tier.
  const SparseMatrix zero = SparseMatrix::from_triplets(11, 4, {});
  linalg::SellMirror sell, sell_t;
  sell.build(zero);
  sell_t.build_transposed(zero);
  const Vector x(4, 3.0), y(11, 2.0);
  for (simd::Tier t : available_tiers()) {
    ASSERT_EQ(simd::set_active_tier(t), t);
    Vector ax(11, -1.0), aty(4, -1.0);
    sell.multiply_into(2.0, x, ax);
    sell_t.multiply_into(2.0, y, aty);
    for (double v : ax) expect_bits_equal(0.0, v);
    for (double v : aty) expect_bits_equal(0.0, v);
  }
}

TEST(SimdTiers, FullAdmmSolveBitIdenticalAcrossTiers) {
  TierGuard guard;
  Rng rng(3200);
  const qp::QpProblem problem = random_feasible_qp(40, 30, rng);
  ASSERT_EQ(simd::set_active_tier(simd::Tier::kScalar), simd::Tier::kScalar);
  qp::AdmmSolver scalar_solver;
  const auto ref = scalar_solver.solve(problem);
  ASSERT_EQ(ref.status, qp::SolveStatus::kOptimal);
  for (simd::Tier t : available_tiers()) {
    ASSERT_EQ(simd::set_active_tier(t), t);
    SCOPED_TRACE(simd::tier_name(t));
    qp::AdmmSolver solver;  // fresh: no cross-tier cache reuse in the test
    const auto got = solver.solve(problem);
    ASSERT_EQ(got.status, qp::SolveStatus::kOptimal);
    EXPECT_EQ(got.iterations, ref.iterations);
    expect_bits_equal(ref.x, got.x);
    expect_bits_equal(ref.y, got.y);
  }
}

/// paper_full's W = 5 MPC window with its first period at `utc_hour`, from
/// a one-server-per-pair state.
dspp::WindowProgram paper_full_window(double utc_hour) {
  static const scenario::ScenarioBundle bundle = scenario::build(scenario::preset("paper_full"));
  static const dspp::PairIndex pairs(bundle.model);
  dspp::WindowInputs inputs;
  inputs.initial_state.assign(pairs.num_pairs(), 1.0);
  for (std::size_t t = 0; t < 5; ++t) {
    inputs.demand.push_back(bundle.demand.mean_rates(utc_hour + static_cast<double>(t)));
    inputs.price.push_back(bundle.prices.server_prices(utc_hour + static_cast<double>(t)));
  }
  return {bundle.model, pairs, std::move(inputs)};
}

TEST(SimdTiers, PaperFullMpcWindowBitIdenticalAcrossTiers) {
  // The production shape: the capacity rows and many sign rows are slack,
  // so about a third of the converged dual is exactly zero and the A^T y
  // products multiply those zeros (terms the CSC product skips). Two
  // receding-horizon steps on one solver per tier; the second runs the
  // warm-start A x and the cached structure.
  TierGuard guard;
  const dspp::WindowProgram first = paper_full_window(9.0);
  const dspp::WindowProgram second = paper_full_window(10.0);
  qp::AdmmSettings settings;
  settings.auto_warm_start = true;
  std::vector<qp::QpResult> ref;
  for (simd::Tier t : available_tiers()) {
    ASSERT_EQ(simd::set_active_tier(t), t);
    SCOPED_TRACE(simd::tier_name(t));
    qp::AdmmSolver solver(settings);
    const std::vector<qp::QpResult> got = {solver.solve(first.problem()),
                                           solver.solve(second.problem())};
    for (const qp::QpResult& r : got) ASSERT_EQ(r.status, qp::SolveStatus::kOptimal);
    if (ref.empty()) {
      ref = got;  // available_tiers() starts at scalar
      continue;
    }
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].iterations, ref[k].iterations);
      expect_bits_equal(ref[k].x, got[k].x);
      expect_bits_equal(ref[k].y, got[k].y);
    }
  }
}

TEST(SimdDispatch, TierNamesRoundTripAndActivationClamps) {
  TierGuard guard;
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    EXPECT_EQ(simd::tier_from_name(simd::tier_name(t)), t);
  }
  EXPECT_THROW((void)simd::tier_from_name("sse42"), std::exception);
  EXPECT_THROW((void)simd::tier_from_name(""), std::exception);
  // Scalar is always available; a request above the hardware clamps DOWN to
  // an available tier and reports what it actually activated.
  EXPECT_EQ(simd::set_active_tier(simd::Tier::kScalar), simd::Tier::kScalar);
  const simd::Tier got = simd::set_active_tier(simd::Tier::kAvx512);
  EXPECT_TRUE(simd::tier_available(got));
  EXPECT_LE(static_cast<int>(got), static_cast<int>(simd::Tier::kAvx512));
  EXPECT_EQ(got, simd::active_tier());
  EXPECT_TRUE(simd::tier_available(simd::Tier::kScalar));
  EXPECT_LE(static_cast<int>(simd::detected_tier()),
            static_cast<int>(simd::Tier::kAvx512));
}

}  // namespace
}  // namespace gp
