// Tests for dense linear algebra: vector kernels, matrix arithmetic,
// Cholesky / LDL^T factorizations and Householder least squares.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/dense_factor.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace gp::linalg {
namespace {

DenseMatrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  DenseMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
  return m;
}

DenseMatrix random_spd(std::size_t n, Rng& rng) {
  // A^T A + n I is comfortably positive definite.
  const DenseMatrix a = random_matrix(n, n, rng);
  DenseMatrix spd = a.transposed() * a;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

TEST(VectorOps, DotAndNorms) {
  const Vector a{1.0, 2.0, 3.0};
  const Vector b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(norm_inf(b), 6.0);
}

TEST(VectorOps, AxpyAndScale) {
  Vector y{1.0, 1.0};
  const Vector x{2.0, 3.0};
  axpby(2.0, x, 1.0, y);  // y += 2 x
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  scale(0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 2.5);
}

TEST(VectorOps, ProjectBoxRespectsBounds) {
  const Vector x{-2.0, 0.5, 9.0};
  const Vector lo{0.0, 0.0, 0.0};
  const Vector hi{1.0, 1.0, 1.0};
  const Vector out = project_box(x, lo, hi);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.5);
  EXPECT_DOUBLE_EQ(out[2], 1.0);
}

TEST(VectorOps, SizeMismatchThrows) {
  const Vector a{1.0};
  const Vector b{1.0, 2.0};
  EXPECT_THROW(dot(a, b), PreconditionError);
  EXPECT_THROW(add(a, b), PreconditionError);
}

TEST(DenseMatrix, MultiplyMatchesManual) {
  DenseMatrix m(2, 3, {1, 2, 3, 4, 5, 6});
  const Vector x{1.0, 0.0, -1.0};
  const Vector y = m.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(DenseMatrix, TransposeRoundTrip) {
  Rng rng(5);
  const DenseMatrix m = random_matrix(4, 7, rng);
  const DenseMatrix mt = m.transposed();
  EXPECT_EQ(mt.rows(), 7u);
  EXPECT_EQ(mt.cols(), 4u);
  const DenseMatrix mtt = mt.transposed();
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 7; ++c) EXPECT_DOUBLE_EQ(m(r, c), mtt(r, c));
}

TEST(DenseMatrix, MultiplyTransposedAgreesWithExplicitTranspose) {
  Rng rng(6);
  const DenseMatrix m = random_matrix(5, 3, rng);
  Vector x(5);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  const Vector a = m.multiply_transposed(x);
  const Vector b = m.transposed().multiply(x);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-14);
}

TEST(DenseMatrix, ProductMatchesIdentity) {
  Rng rng(7);
  const DenseMatrix m = random_matrix(4, 4, rng);
  const DenseMatrix prod = m * DenseMatrix::identity(4);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(m(r, c), prod(r, c));
}

TEST(DenseMatrix, ShapeMismatchThrows) {
  DenseMatrix a(2, 3);
  DenseMatrix b(3, 3);
  EXPECT_THROW(a + b, PreconditionError);
  EXPECT_THROW(b * a, PreconditionError);
  EXPECT_THROW((DenseMatrix{2, 2, {1.0, 2.0, 3.0}}), PreconditionError);
}

class CholeskySizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySizeTest, SolvesRandomSpdSystems) {
  const std::size_t n = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(n));
  const DenseMatrix a = random_spd(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.uniform(-2.0, 2.0);
  Cholesky chol;
  ASSERT_EQ(chol.factor(a), FactorStatus::kOk);
  const Vector x = chol.solve(b);
  const Vector ax = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizeTest, ::testing::Values(1, 2, 3, 5, 10, 40, 100));

TEST(Cholesky, RejectsIndefiniteMatrix) {
  DenseMatrix a(2, 2, {1.0, 2.0, 2.0, 1.0});  // eigenvalues 3, -1
  Cholesky chol;
  EXPECT_EQ(chol.factor(a), FactorStatus::kNotPositiveDefinite);
}

TEST(Cholesky, SolveBeforeFactorThrows) {
  Cholesky chol;
  EXPECT_THROW(chol.solve(Vector{1.0}), PreconditionError);
}

TEST(Ldlt, SolvesQuasiDefiniteKkt) {
  // [[ I, A^T ], [ A, -I ]] is quasi-definite for any A.
  Rng rng(9);
  const std::size_t n = 6, m = 4;
  DenseMatrix kkt(n + m, n + m);
  const DenseMatrix a = random_matrix(m, n, rng);
  for (std::size_t i = 0; i < n; ++i) kkt(i, i) = 1.0;
  for (std::size_t i = 0; i < m; ++i) kkt(n + i, n + i) = -1.0;
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c) {
      kkt(n + r, c) = a(r, c);
      kkt(c, n + r) = a(r, c);
    }
  Vector b(n + m);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  Ldlt ldlt;
  ASSERT_EQ(ldlt.factor(kkt), FactorStatus::kOk);
  const Vector x = ldlt.solve(b);
  const Vector kx = kkt.multiply(x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(kx[i], b[i], 1e-9);
}

TEST(Ldlt, SignedDiagonalReflectsInertia) {
  // The KKT above has n positive and m negative eigen-directions.
  DenseMatrix kkt(2, 2, {1.0, 2.0, 2.0, -1.0});
  Ldlt ldlt;
  ASSERT_EQ(ldlt.factor(kkt), FactorStatus::kOk);
  int positives = 0, negatives = 0;
  for (double d : ldlt.d()) (d > 0 ? positives : negatives)++;
  EXPECT_EQ(positives, 1);
  EXPECT_EQ(negatives, 1);
}

TEST(Ldlt, ZeroPivotDetected) {
  DenseMatrix singular(2, 2, {0.0, 0.0, 0.0, 1.0});
  Ldlt ldlt;
  EXPECT_EQ(ldlt.factor(singular), FactorStatus::kZeroPivot);
}

}  // namespace
}  // namespace gp::linalg
