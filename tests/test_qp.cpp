// Tests for the QP solver stack: problem validation, Ruiz equilibration,
// the ADMM solver, the dense IPM solver, and cross-validation between the
// two on random strictly convex programs (primal, dual and KKT agreement).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "qp/admm_solver.hpp"
#include "qp/ipm_solver.hpp"
#include "qp/scaling.hpp"

namespace gp::qp {
namespace {

using linalg::SparseMatrix;
using linalg::Triplet;
using linalg::Vector;

/// min (x0-1)^2 + (x1-2)^2 with no constraints => x = (1, 2).
QpProblem simple_unconstrained() {
  QpProblem problem;
  problem.p = SparseMatrix::identity(2, 2.0);
  problem.q = {-2.0, -4.0};
  problem.a = SparseMatrix::from_triplets(0, 2, {});
  problem.lower = {};
  problem.upper = {};
  return problem;
}

/// min x0^2 + x1^2 s.t. x0 + x1 = 2 => x = (1, 1), y = -2 (gradient 2x + A'y = 0).
QpProblem simple_equality() {
  QpProblem problem;
  problem.p = SparseMatrix::identity(2, 2.0);
  problem.q = {0.0, 0.0};
  const std::vector<Triplet> a{{0, 0, 1.0}, {0, 1, 1.0}};
  problem.a = SparseMatrix::from_triplets(1, 2, a);
  problem.lower = {2.0};
  problem.upper = {2.0};
  return problem;
}

/// min (x-3)^2 s.t. x <= 1 => x = 1, y = 4 at the upper bound... (2(x-3) + y = 0).
QpProblem simple_bound() {
  QpProblem problem;
  problem.p = SparseMatrix::identity(1, 2.0);
  problem.q = {-6.0};
  problem.a = SparseMatrix::identity(1, 1.0);
  problem.lower = {-kInfinity};
  problem.upper = {1.0};
  return problem;
}

/// Strictly convex random QP with a box and a few general rows, guaranteed
/// feasible (bounds straddle A x0 for a random x0).
QpProblem random_feasible_qp(std::size_t n, std::size_t m, Rng& rng) {
  // P = B^T B + I (dense-ish but sparse-stored).
  std::vector<Triplet> p_triplets;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      if (i == j) {
        p_triplets.push_back({static_cast<std::int32_t>(i), static_cast<std::int32_t>(j),
                              2.0 + rng.uniform()});
      } else if (rng.uniform() < 0.3) {
        const double v = rng.uniform(-0.3, 0.3);
        p_triplets.push_back({static_cast<std::int32_t>(i), static_cast<std::int32_t>(j), v});
        p_triplets.push_back({static_cast<std::int32_t>(j), static_cast<std::int32_t>(i), v});
      }
    }
  }
  QpProblem problem;
  problem.p = SparseMatrix::from_triplets(static_cast<std::int32_t>(n),
                                          static_cast<std::int32_t>(n), p_triplets);
  problem.q.assign(n, 0.0);
  for (auto& v : problem.q) v = rng.uniform(-1.0, 1.0);

  std::vector<Triplet> a_triplets;
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (rng.uniform() < 0.5) {
        a_triplets.push_back({static_cast<std::int32_t>(r), static_cast<std::int32_t>(c),
                              rng.uniform(-1.0, 1.0)});
      }
    }
  }
  problem.a = SparseMatrix::from_triplets(static_cast<std::int32_t>(m),
                                          static_cast<std::int32_t>(n), a_triplets);
  Vector x0(n);
  for (auto& v : x0) v = rng.uniform(-1.0, 1.0);
  const Vector ax0 = problem.a.multiply(x0);
  problem.lower.assign(m, 0.0);
  problem.upper.assign(m, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const int kind = static_cast<int>(rng.uniform_int(0, 3));
    switch (kind) {
      case 0:  // two-sided
        problem.lower[r] = ax0[r] - rng.uniform(0.1, 1.0);
        problem.upper[r] = ax0[r] + rng.uniform(0.1, 1.0);
        break;
      case 1:  // upper only
        problem.lower[r] = -kInfinity;
        problem.upper[r] = ax0[r] + rng.uniform(0.0, 1.0);
        break;
      case 2:  // lower only
        problem.lower[r] = ax0[r] - rng.uniform(0.0, 1.0);
        problem.upper[r] = kInfinity;
        break;
      default:  // equality
        problem.lower[r] = ax0[r];
        problem.upper[r] = ax0[r];
        break;
    }
  }
  return problem;
}

/// Verifies the KKT conditions of (x, y) for the problem to tolerance.
void expect_kkt(const QpProblem& problem, const QpResult& result, double tol) {
  ASSERT_TRUE(result.ok()) << to_string(result.status);
  // Primal feasibility.
  EXPECT_LE(problem.constraint_violation(result.x), tol);
  // Stationarity: P x + q + A^T y = 0.
  const Vector px = problem.p.multiply(result.x);
  const Vector aty = problem.a.multiply_transposed(result.y);
  for (std::size_t j = 0; j < problem.num_variables(); ++j) {
    EXPECT_NEAR(px[j] + problem.q[j] + aty[j], 0.0, tol) << "stationarity at " << j;
  }
  // Dual feasibility + complementary slackness.
  const Vector ax = problem.a.multiply(result.x);
  for (std::size_t i = 0; i < problem.num_constraints(); ++i) {
    if (problem.lower[i] == problem.upper[i]) continue;  // equality: y free
    if (result.y[i] > tol) {
      EXPECT_NEAR(ax[i], problem.upper[i], std::sqrt(tol)) << "upper active at " << i;
    } else if (result.y[i] < -tol) {
      EXPECT_NEAR(ax[i], problem.lower[i], std::sqrt(tol)) << "lower active at " << i;
    }
  }
}

TEST(QpProblem, ValidateCatchesShapeErrors) {
  QpProblem problem = simple_equality();
  problem.q = {1.0};  // wrong size
  EXPECT_THROW(problem.validate(), PreconditionError);
  problem = simple_equality();
  problem.lower = {3.0};
  problem.upper = {2.0};  // crossing bounds
  EXPECT_THROW(problem.validate(), PreconditionError);
}

TEST(QpProblem, ObjectiveAndViolation) {
  const QpProblem problem = simple_equality();
  const Vector x{1.0, 1.0};
  EXPECT_DOUBLE_EQ(problem.objective(x), 2.0);
  EXPECT_NEAR(problem.constraint_violation(x), 0.0, 1e-15);
  const Vector bad{0.0, 0.0};
  EXPECT_DOUBLE_EQ(problem.constraint_violation(bad), 2.0);
}

TEST(Scaling, EquilibrationImprovesConditioning) {
  // Badly scaled problem: huge P entry vs tiny A entries.
  QpProblem problem;
  problem.p = SparseMatrix::diagonal(Vector{1e6, 1e-4});
  problem.q = {1e3, 1e-3};
  problem.a = SparseMatrix::from_triplets(1, 2, {{0, 0, 1e-3}, {0, 1, 1e2}});
  problem.lower = {-1.0};
  problem.upper = {1.0};
  const Scaling scaling = ruiz_equilibrate(problem);
  const Vector col = problem.p.column_inf_norms();
  const Vector a_row = problem.a.row_inf_norms();
  // After equilibration all norms should be within a few orders of 1.
  for (double v : col) EXPECT_LT(v, 10.0);
  for (double v : a_row) {
    EXPECT_LT(v, 10.0);
    EXPECT_GT(v, 0.1);
  }
  EXPECT_GT(scaling.cost_scale, 0.0);
}

TEST(Scaling, IdentityScalingLeavesProblemUnchanged) {
  const auto scaling = Scaling::identity(3, 2);
  EXPECT_EQ(scaling.d, Vector({1.0, 1.0, 1.0}));
  EXPECT_EQ(scaling.e, Vector({1.0, 1.0}));
  EXPECT_DOUBLE_EQ(scaling.cost_scale, 1.0);
}

class BothSolversTest : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<QpSolver> make_solver() const {
    if (GetParam()) return std::make_unique<AdmmSolver>();
    return std::make_unique<IpmSolver>();
  }
  double tolerance() const { return GetParam() ? 2e-4 : 1e-6; }
};

TEST_P(BothSolversTest, SolvesUnconstrained) {
  const QpProblem problem = simple_unconstrained();
  const QpResult result = make_solver()->solve(problem);
  ASSERT_TRUE(result.ok()) << to_string(result.status);
  EXPECT_NEAR(result.x[0], 1.0, tolerance());
  EXPECT_NEAR(result.x[1], 2.0, tolerance());
  EXPECT_NEAR(result.objective, -5.0, tolerance());
}

TEST_P(BothSolversTest, SolvesEqualityConstrained) {
  const QpProblem problem = simple_equality();
  const QpResult result = make_solver()->solve(problem);
  ASSERT_TRUE(result.ok()) << to_string(result.status);
  EXPECT_NEAR(result.x[0], 1.0, tolerance());
  EXPECT_NEAR(result.x[1], 1.0, tolerance());
  EXPECT_NEAR(result.y[0], -2.0, 100 * tolerance());
}

TEST_P(BothSolversTest, SolvesActiveUpperBound) {
  const QpProblem problem = simple_bound();
  const QpResult result = make_solver()->solve(problem);
  ASSERT_TRUE(result.ok()) << to_string(result.status);
  EXPECT_NEAR(result.x[0], 1.0, tolerance());
  EXPECT_NEAR(result.y[0], 4.0, 100 * tolerance());
}

TEST_P(BothSolversTest, SatisfiesKktOnRandomProblems) {
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    const QpProblem problem = random_feasible_qp(8, 6, rng);
    const QpResult result = make_solver()->solve(problem);
    expect_kkt(problem, result, 5e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(AdmmAndIpm, BothSolversTest, ::testing::Bool(),
                         [](const auto& param_info) { return param_info.param ? "Admm" : "Ipm"; });

TEST(CrossValidation, AdmmMatchesIpmOnRandomProblems) {
  Rng rng(123);
  AdmmSolver admm;
  IpmSolver ipm;
  for (int trial = 0; trial < 10; ++trial) {
    const QpProblem problem = random_feasible_qp(10, 8, rng);
    const QpResult ra = admm.solve(problem);
    const QpResult ri = ipm.solve(problem);
    ASSERT_TRUE(ra.ok()) << "admm trial " << trial << ": " << to_string(ra.status);
    ASSERT_TRUE(ri.ok()) << "ipm trial " << trial << ": " << to_string(ri.status);
    EXPECT_NEAR(ra.objective, ri.objective, 1e-3 * (1.0 + std::abs(ri.objective)))
        << "objective mismatch in trial " << trial;
    for (std::size_t j = 0; j < problem.num_variables(); ++j) {
      EXPECT_NEAR(ra.x[j], ri.x[j], 5e-3) << "x[" << j << "] trial " << trial;
    }
  }
}

TEST(CrossValidation, DualsAgreeOnActiveConstraints) {
  Rng rng(321);
  AdmmSolver admm;
  IpmSolver ipm;
  for (int trial = 0; trial < 5; ++trial) {
    const QpProblem problem = random_feasible_qp(6, 5, rng);
    const QpResult ra = admm.solve(problem);
    const QpResult ri = ipm.solve(problem);
    ASSERT_TRUE(ra.ok() && ri.ok());
    for (std::size_t i = 0; i < problem.num_constraints(); ++i) {
      EXPECT_NEAR(ra.y[i], ri.y[i], 5e-3 * (1.0 + std::abs(ri.y[i])))
          << "y[" << i << "] trial " << trial;
    }
  }
}

TEST(Admm, DetectsPrimalInfeasibility) {
  // x >= 1 and x <= -1 simultaneously.
  QpProblem problem;
  problem.p = SparseMatrix::identity(1, 1.0);
  problem.q = {0.0};
  problem.a = SparseMatrix::from_triplets(2, 1, {{0, 0, 1.0}, {1, 0, 1.0}});
  problem.lower = {1.0, -kInfinity};
  problem.upper = {kInfinity, -1.0};
  AdmmSolver solver;
  const QpResult result = solver.solve(problem);
  EXPECT_EQ(result.status, SolveStatus::kPrimalInfeasible);
}

TEST(Admm, DetectsDualInfeasibility) {
  // min -x with x >= 0 only: unbounded below.
  QpProblem problem;
  problem.p = SparseMatrix::from_triplets(1, 1, {});
  problem.q = {-1.0};
  problem.a = SparseMatrix::identity(1, 1.0);
  problem.lower = {0.0};
  problem.upper = {kInfinity};
  AdmmSolver solver;
  const QpResult result = solver.solve(problem);
  EXPECT_EQ(result.status, SolveStatus::kDualInfeasible);
}

TEST(Admm, HandlesBadlyScaledProblem) {
  // Price-like coefficients (1e-2) against demand-like bounds (1e4).
  QpProblem problem;
  problem.p = SparseMatrix::diagonal(Vector{2e-2, 2e-2});
  problem.q = {1e-2, 3e-2};
  problem.a = SparseMatrix::from_triplets(2, 2,
                                          {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, -1.0}});
  problem.lower = {1e4, -kInfinity};
  problem.upper = {kInfinity, 5e3};
  AdmmSolver solver;
  const QpResult result = solver.solve(problem);
  ASSERT_TRUE(result.ok()) << to_string(result.status);
  EXPECT_LE(problem.constraint_violation(result.x), 1e-2);
  // Compare against IPM on the same data.
  IpmSolver ipm;
  const QpResult exact = ipm.solve(problem);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(result.objective, exact.objective, 1e-3 * std::abs(exact.objective));
}

TEST(Admm, RespectsMaxIterations) {
  AdmmSettings settings;
  settings.max_iterations = 3;
  settings.check_interval = 1;
  AdmmSolver solver(settings);
  Rng rng(5);
  const QpProblem problem = random_feasible_qp(6, 4, rng);
  const QpResult result = solver.solve(problem);
  EXPECT_LE(result.iterations, 3);
}

TEST(Admm, ZeroVariableProblemIsTrivial) {
  QpProblem problem;
  problem.p = SparseMatrix::from_triplets(0, 0, {});
  problem.q = {};
  problem.a = SparseMatrix::from_triplets(0, 0, {});
  problem.lower = {};
  problem.upper = {};
  AdmmSolver solver;
  const QpResult result = solver.solve(problem);
  EXPECT_TRUE(result.x.empty());
}

TEST(Admm, WarmStartCutsIterations) {
  Rng rng(2024);
  const QpProblem problem = random_feasible_qp(12, 10, rng);
  AdmmSolver cold;
  const QpResult first = cold.solve(problem);
  ASSERT_TRUE(first.ok());
  AdmmSolver warm;
  warm.warm_start(first.x, first.y);
  const QpResult second = warm.solve(problem);
  ASSERT_TRUE(second.ok());
  EXPECT_LT(second.iterations, first.iterations);
  EXPECT_NEAR(second.objective, first.objective, 1e-4 * (1.0 + std::abs(first.objective)));
}

TEST(Admm, AutoWarmStartAcrossPerturbedProblems) {
  // Receding-horizon pattern: re-solve with slightly shifted bounds. The
  // second solve must start from the cached iterate and finish faster.
  Rng rng(2025);
  QpProblem problem = random_feasible_qp(12, 10, rng);
  AdmmSettings settings;
  settings.auto_warm_start = true;
  AdmmSolver solver(settings);
  const QpResult first = solver.solve(problem);
  ASSERT_TRUE(first.ok());
  for (std::size_t i = 0; i < problem.num_constraints(); ++i) {
    if (problem.lower[i] != -kInfinity) problem.lower[i] -= 0.01;
    if (problem.upper[i] != kInfinity) problem.upper[i] += 0.01;
  }
  const QpResult second = solver.solve(problem);
  ASSERT_TRUE(second.ok());
  EXPECT_LE(second.iterations, first.iterations);
  // And the warm iterate must not corrupt correctness.
  EXPECT_LE(problem.constraint_violation(second.x), 1e-4);
}

TEST(Admm, WarmStartWithWrongDimensionsIsIgnored) {
  Rng rng(2026);
  const QpProblem problem = random_feasible_qp(6, 4, rng);
  AdmmSolver solver;
  solver.warm_start(Vector(3, 1.0), Vector(2, 0.0));  // wrong sizes
  const QpResult result = solver.solve(problem);
  EXPECT_TRUE(result.ok());  // silently solved cold
}

TEST(Admm, PolishSharpensKktResiduals) {
  Rng rng(3030);
  AdmmSettings loose;
  loose.eps_abs = 1e-4;
  loose.eps_rel = 1e-4;
  AdmmSettings polished_settings = loose;
  polished_settings.polish = true;
  for (int trial = 0; trial < 5; ++trial) {
    const QpProblem problem = random_feasible_qp(10, 8, rng);
    AdmmSolver rough(loose);
    AdmmSolver polished(polished_settings);
    const QpResult a = rough.solve(problem);
    const QpResult b = polished.solve(problem);
    ASSERT_TRUE(a.ok() && b.ok());
    // The polished point is a sharper KKT point: (near-)exactly feasible
    // and (near-)exactly stationary. (Its objective may be a hair HIGHER
    // than the rough iterate's, whose slight infeasibility fakes a lower
    // cost — which is precisely why polish matters.)
    EXPECT_LE(problem.constraint_violation(b.x), 1e-7) << "trial " << trial;
    EXPECT_LE(b.primal_residual, a.primal_residual + 1e-12) << "trial " << trial;
    EXPECT_LE(b.dual_residual, std::max(a.dual_residual, 1e-7)) << "trial " << trial;
  }
}

TEST(Admm, PolishMatchesIpmDuals) {
  Rng rng(4040);
  AdmmSettings settings;
  settings.polish = true;
  AdmmSolver admm(settings);
  IpmSolver ipm;
  const QpProblem problem = random_feasible_qp(8, 6, rng);
  const QpResult pa = admm.solve(problem);
  const QpResult pi = ipm.solve(problem);
  ASSERT_TRUE(pa.ok() && pi.ok());
  for (std::size_t i = 0; i < problem.num_constraints(); ++i) {
    EXPECT_NEAR(pa.y[i], pi.y[i], 2e-4 * (1.0 + std::abs(pi.y[i]))) << "y[" << i << "]";
  }
}

TEST(Admm, ReusedPolishFactorIsExact) {
  // Polishing the same (problem, x, y) with a kept factorization and with a
  // fresh polisher must agree bit for bit: the reduced KKT matrix is the same.
  Rng rng(5050);
  const QpProblem problem = random_feasible_qp(12, 10, rng);
  AdmmSettings settings;
  settings.eps_abs = 1e-4;
  settings.eps_rel = 1e-4;
  const QpResult rough = AdmmSolver(settings).solve(problem);
  ASSERT_TRUE(rough.ok());

  ActiveSetPolisher warm;
  Vector x_warm = rough.x, y_warm = rough.y;
  ASSERT_TRUE(warm.polish(problem, x_warm, y_warm));
  x_warm = rough.x;
  y_warm = rough.y;
  ASSERT_TRUE(warm.polish(problem, x_warm, y_warm));
  EXPECT_EQ(warm.factorizations(), 1);
  EXPECT_EQ(warm.reuses(), 1);

  ActiveSetPolisher cold;
  Vector x_cold = rough.x, y_cold = rough.y;
  ASSERT_TRUE(cold.polish(problem, x_cold, y_cold));
  EXPECT_EQ(cold.reuses(), 0);
  EXPECT_EQ(x_warm, x_cold);
  EXPECT_EQ(y_warm, y_cold);
  EXPECT_EQ(problem.objective(x_warm), problem.objective(x_cold));
}

TEST(Admm, PolishRefactorsWhenMatrixValuesChange) {
  // The solver keeps its polish factorization across solves of the same
  // matrices and must drop it once a P or an A value changes; the result is
  // then a fresh polish of the (unpolished) iterate.
  Rng rng(6060);
  const QpProblem problem = random_feasible_qp(12, 10, rng);
  AdmmSettings plain;
  plain.eps_abs = 1e-4;
  plain.eps_rel = 1e-4;
  AdmmSettings polished = plain;
  polished.polish = true;

  QpProblem new_p = problem;
  new_p.p.mutable_values()[0] += 0.5;  // a diagonal entry: P stays symmetric
  QpProblem new_a = problem;
  new_a.a.mutable_values()[0] *= 1.1;
  for (const QpProblem* changed : {&new_p, &new_a}) {
    AdmmSolver solver(polished);
    ASSERT_TRUE(solver.solve(problem).ok());
    ASSERT_TRUE(solver.solve(problem).ok());
    EXPECT_EQ(solver.cache_stats().polish_reuses, 1);  // same matrices: kept
    const QpResult result = solver.solve(*changed);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(solver.cache_stats().polish_reuses, 1);
    EXPECT_EQ(solver.cache_stats().polish_factorizations, 2);

    // Without polish the same solve history yields the iterate the polish
    // started from (no warm start, so polishing never feeds back).
    AdmmSolver reference(plain);
    ASSERT_TRUE(reference.solve(problem).ok());
    ASSERT_TRUE(reference.solve(problem).ok());
    const QpResult unpolished = reference.solve(*changed);
    ActiveSetPolisher fresh;
    Vector x = unpolished.x, y = unpolished.y;
    ASSERT_TRUE(fresh.polish(*changed, x, y));
    EXPECT_EQ(result.x, x);
    EXPECT_EQ(result.y, y);
    EXPECT_EQ(result.objective, changed->objective(x));
  }
}

TEST(Ipm, TightToleranceOnEqualityQp) {
  const QpProblem problem = simple_equality();
  IpmSettings settings;
  settings.tolerance = 1e-12;
  IpmSolver solver(settings);
  const QpResult result = solver.solve(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.x[0], 1.0, 1e-9);
  EXPECT_LT(result.dual_residual, 1e-8);
}

}  // namespace
/// min 1/2 x^2 - x  s.t.  x >= 0: optimum x = 1 with a slack sign row.
QpProblem planted_wrong_sign_problem() {
  QpProblem problem;
  problem.p = SparseMatrix::from_triplets(1, 1, {{0, 0, 1.0}});
  problem.q = {-1.0};
  problem.a = SparseMatrix::from_triplets(1, 1, {{0, 0, 1.0}});
  problem.lower = {0.0};
  problem.upper = {kInfinity};
  return problem;
}

TEST(KktCertificate, PlantedWrongSignDualIsCaught) {
  // x = 0 with y = +1 on the lower-bounded row zeroes the primal violation
  // and the stationarity residual (0 - 1 + 1 = 0): the two residuals the
  // ADMM convergence and polish tests look at read ~0, yet the point is
  // not optimal. Only the dual-sign test sees it.
  const QpProblem problem = planted_wrong_sign_problem();
  const Vector x{1e-15};
  const Vector y{1.0 + 1e-15};
  const KktCertificate planted = kkt_certificate(problem, x, y);
  EXPECT_LE(planted.primal, 1e-14);
  EXPECT_LE(planted.stationarity, 1e-14);
  EXPECT_NEAR(planted.dual_sign, 1.0, 1e-12);

  // The true optimum passes all four tests; y = -1 at x = 0 violates
  // stationarity, and a pushing dual on a slack row breaks complementarity.
  const KktCertificate optimum = kkt_certificate(problem, Vector{1.0}, Vector{0.0});
  EXPECT_EQ(optimum.primal, 0.0);
  EXPECT_EQ(optimum.stationarity, 0.0);
  EXPECT_EQ(optimum.dual_sign, 0.0);
  EXPECT_EQ(optimum.complementarity, 0.0);
  EXPECT_NEAR(kkt_certificate(problem, Vector{2.0}, Vector{-0.5}).complementarity, 1.0, 1e-15);

  // Equality and two-sided rows accept either sign.
  QpProblem boxed = problem;
  boxed.upper = {0.0};
  EXPECT_EQ(kkt_certificate(boxed, Vector{0.0}, Vector{1.0}).dual_sign, 0.0);
}

TEST(KktCertificate, PolishCountsAcceptedWrongSignPoints) {
  // Fed an iterate near x = 0 with a negative dual, the polisher treats the
  // sign row as active, solves x = 0, y = +1 and accepts it: its primal and
  // stationarity residuals beat the iterate's. The registry counts it.
  auto& registry = obs::Registry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  auto& wrong_sign = registry.counter("admm.polish_wrong_sign");
  const long long before = wrong_sign.value();

  const QpProblem problem = planted_wrong_sign_problem();
  Vector x{1e-5};
  Vector y{-1e-3};
  ActiveSetPolisher polisher;
  EXPECT_TRUE(polisher.polish(problem, x, y));
  EXPECT_NEAR(x[0], 0.0, 1e-12);
  EXPECT_NEAR(y[0], 1.0, 1e-6);
  EXPECT_EQ(wrong_sign.value(), before + 1);

  // A correct polish does not count.
  QpProblem right = problem;
  right.q = {1.0};  // optimum x = 0 with y = -1
  x = {1e-5};
  y = {-0.9};
  EXPECT_TRUE(polisher.polish(right, x, y));
  EXPECT_EQ(wrong_sign.value(), before + 1);
  registry.set_enabled(was_enabled);
}

}  // namespace gp::qp
