// Tests for sparse linear algebra: CSC construction and kernels, orderings,
// and the sparse LDL^T factorization (including quasi-definite KKT systems,
// the exact shape the ADMM solver factors).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dspp/window_program.hpp"
#include "linalg/dense_factor.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "linalg/sparse_matrix.hpp"
#include "scenario/registry.hpp"

namespace gp::linalg {
namespace {

SparseMatrix random_sparse(std::int32_t rows, std::int32_t cols, double density, Rng& rng) {
  std::vector<Triplet> triplets;
  for (std::int32_t r = 0; r < rows; ++r)
    for (std::int32_t c = 0; c < cols; ++c)
      if (rng.uniform() < density) triplets.push_back({r, c, rng.uniform(-1.0, 1.0)});
  return SparseMatrix::from_triplets(rows, cols, triplets);
}

/// Builds a random symmetric quasi-definite KKT matrix
/// [[P + I, A^T], [A, -I]] and returns its upper triangle.
SparseMatrix random_kkt_upper(std::int32_t n, std::int32_t m, Rng& rng, double density = 0.3) {
  std::vector<Triplet> triplets;
  for (std::int32_t i = 0; i < n; ++i) triplets.push_back({i, i, 1.0 + rng.uniform()});
  for (std::int32_t i = 0; i < m; ++i) triplets.push_back({n + i, n + i, -1.0 - rng.uniform()});
  for (std::int32_t r = 0; r < m; ++r)
    for (std::int32_t c = 0; c < n; ++c)
      if (rng.uniform() < density) triplets.push_back({c, n + r, rng.uniform(-1.0, 1.0)});
  return SparseMatrix::from_triplets(n + m, n + m, triplets);
}

/// Expands an upper triangle to the full symmetric dense matrix.
DenseMatrix full_from_upper(const SparseMatrix& upper) {
  DenseMatrix d = upper.to_dense();
  for (std::size_t r = 0; r < d.rows(); ++r)
    for (std::size_t c = r + 1; c < d.cols(); ++c) d(c, r) = d(r, c);
  return d;
}

TEST(SparseMatrix, FromTripletsSumsDuplicates) {
  const std::vector<Triplet> triplets{{0, 0, 1.0}, {0, 0, 2.0}, {1, 1, 5.0}};
  const auto a = SparseMatrix::from_triplets(2, 2, triplets);
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.coefficient(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.coefficient(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(a.coefficient(0, 1), 0.0);
}

TEST(SparseMatrix, FromTripletsRejectsOutOfRange) {
  const std::vector<Triplet> bad{{2, 0, 1.0}};
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, bad), PreconditionError);
}

TEST(SparseMatrix, EmptyColumnsHaveValidPointers) {
  const std::vector<Triplet> triplets{{0, 3, 1.0}};
  const auto a = SparseMatrix::from_triplets(2, 5, triplets);
  EXPECT_EQ(a.nnz(), 1);
  const auto ptr = a.col_ptr();
  for (std::size_t c = 1; c < ptr.size(); ++c) EXPECT_GE(ptr[c], ptr[c - 1]);
  EXPECT_DOUBLE_EQ(a.coefficient(0, 3), 1.0);
}

TEST(SparseMatrix, MultiplyMatchesDense) {
  Rng rng(3);
  const auto a = random_sparse(6, 9, 0.4, rng);
  Vector x(9);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  const Vector sparse_y = a.multiply(x);
  const Vector dense_y = a.to_dense().multiply(x);
  for (std::size_t i = 0; i < sparse_y.size(); ++i) EXPECT_NEAR(sparse_y[i], dense_y[i], 1e-14);
}

TEST(SparseMatrix, TransposedMultiplyMatchesDense) {
  Rng rng(4);
  const auto a = random_sparse(6, 9, 0.4, rng);
  Vector x(6);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  const Vector sparse_y = a.multiply_transposed(x);
  const Vector dense_y = a.to_dense().multiply_transposed(x);
  for (std::size_t i = 0; i < sparse_y.size(); ++i) EXPECT_NEAR(sparse_y[i], dense_y[i], 1e-14);
}

TEST(SparseMatrix, TransposeRoundTrip) {
  Rng rng(5);
  const auto a = random_sparse(7, 5, 0.3, rng);
  const auto att = a.transposed().transposed();
  EXPECT_EQ(att.nnz(), a.nnz());
  for (std::int32_t r = 0; r < 7; ++r)
    for (std::int32_t c = 0; c < 5; ++c)
      EXPECT_DOUBLE_EQ(a.coefficient(r, c), att.coefficient(r, c));
}

TEST(SparseMatrix, ProductMatchesDense) {
  Rng rng(6);
  const auto a = random_sparse(4, 6, 0.5, rng);
  const auto b = random_sparse(6, 3, 0.5, rng);
  const auto ab = a.multiply(b);
  const DenseMatrix dense_ab = a.to_dense() * b.to_dense();
  for (std::int32_t r = 0; r < 4; ++r)
    for (std::int32_t c = 0; c < 3; ++c)
      EXPECT_NEAR(ab.coefficient(r, c), dense_ab(static_cast<std::size_t>(r),
                                                 static_cast<std::size_t>(c)),
                  1e-14);
}

TEST(SparseMatrix, UpperTriangleKeepsDiagonal) {
  Rng rng(7);
  auto a = random_sparse(5, 5, 0.6, rng);
  const auto upper = a.upper_triangle();
  for (std::int32_t r = 0; r < 5; ++r)
    for (std::int32_t c = 0; c < 5; ++c) {
      if (r <= c) {
        EXPECT_DOUBLE_EQ(upper.coefficient(r, c), a.coefficient(r, c));
      } else {
        EXPECT_DOUBLE_EQ(upper.coefficient(r, c), 0.0);
      }
    }
}

TEST(SparseMatrix, ScaleRowsCols) {
  const std::vector<Triplet> triplets{{0, 0, 2.0}, {1, 1, 3.0}, {0, 1, 1.0}};
  auto a = SparseMatrix::from_triplets(2, 2, triplets);
  const Vector row_scale{2.0, 4.0};
  const Vector col_scale{10.0, 100.0};
  a.scale_rows_cols(row_scale, col_scale);
  EXPECT_DOUBLE_EQ(a.coefficient(0, 0), 40.0);
  EXPECT_DOUBLE_EQ(a.coefficient(0, 1), 200.0);
  EXPECT_DOUBLE_EQ(a.coefficient(1, 1), 1200.0);
}

TEST(SparseMatrix, InfNorms) {
  const std::vector<Triplet> triplets{{0, 0, -2.0}, {1, 0, 1.0}, {1, 2, 5.0}};
  const auto a = SparseMatrix::from_triplets(2, 3, triplets);
  const Vector col_norms = a.column_inf_norms();
  EXPECT_DOUBLE_EQ(col_norms[0], 2.0);
  EXPECT_DOUBLE_EQ(col_norms[1], 0.0);
  EXPECT_DOUBLE_EQ(col_norms[2], 5.0);
  const Vector row_norms = a.row_inf_norms();
  EXPECT_DOUBLE_EQ(row_norms[0], 2.0);
  EXPECT_DOUBLE_EQ(row_norms[1], 5.0);
}

TEST(Ordering, IdentityAndInverseRoundTrip) {
  const auto id = identity_permutation(5);
  for (std::int32_t i = 0; i < 5; ++i) EXPECT_EQ(id[static_cast<std::size_t>(i)], i);
  Permutation perm{3, 1, 4, 0, 2};
  const auto inv = invert_permutation(perm);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(inv[static_cast<std::size_t>(perm[i])], static_cast<std::int32_t>(i));
  }
}

TEST(Ordering, MinimumDegreeIsAPermutation) {
  Rng rng(8);
  const auto upper = random_kkt_upper(10, 6, rng);
  const auto perm = minimum_degree_ordering(upper);
  ASSERT_EQ(perm.size(), 16u);
  std::vector<bool> seen(16, false);
  for (std::int32_t p : perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 16);
    EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
    seen[static_cast<std::size_t>(p)] = true;
  }
}

TEST(Ordering, ArrowheadMatrixOrdersHubLast) {
  // Arrowhead: dense first row/column. Min-degree must defer the hub (0),
  // which keeps L fill-free; eliminating the hub first fills everything.
  const std::int32_t n = 12;
  std::vector<Triplet> triplets;
  for (std::int32_t i = 0; i < n; ++i) triplets.push_back({i, i, 4.0});
  for (std::int32_t i = 1; i < n; ++i) triplets.push_back({0, i, 1.0});
  const auto upper = SparseMatrix::from_triplets(n, n, triplets);
  const auto perm = minimum_degree_ordering(upper);
  // The hub must be eliminated once only degree-1 vertices remain (it can
  // tie with the final leaf, so allow the last two slots).
  EXPECT_TRUE(perm.back() == 0 || perm[perm.size() - 2] == 0);
  SparseLdlt ldlt;
  ASSERT_EQ(ldlt.factor(upper, perm), SparseLdlt::Status::kOk);
  // Fill-free: L has exactly the n-1 off-diagonal entries of the arrow.
  EXPECT_EQ(ldlt.l_nnz(), n - 1);
}

TEST(Ordering, SymmetricPermuteUpperPreservesMatrix) {
  Rng rng(9);
  const auto upper = random_kkt_upper(6, 4, rng);
  const Permutation perm = minimum_degree_ordering(upper);
  const auto permuted = symmetric_permute_upper(upper, perm);
  const DenseMatrix full = full_from_upper(upper);
  const DenseMatrix permuted_full = full_from_upper(permuted);
  const auto inv = invert_permutation(perm);
  for (std::size_t r = 0; r < full.rows(); ++r)
    for (std::size_t c = 0; c < full.cols(); ++c) {
      EXPECT_NEAR(permuted_full(static_cast<std::size_t>(inv[r]),
                                static_cast<std::size_t>(inv[c])),
                  full(r, c), 1e-15);
    }
}

TEST(Ordering, PermuteVectorsRoundTrip) {
  const Permutation perm{2, 0, 1};
  const Vector x{10.0, 20.0, 30.0};
  const Vector forward = permute(x, perm);
  EXPECT_DOUBLE_EQ(forward[0], 30.0);
  const Vector back = permute_inverse(forward, perm);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(back[i], x[i]);
}

class SparseLdltSizeTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SparseLdltSizeTest, SolvesRandomQuasiDefiniteKkt) {
  const auto [n, m] = GetParam();
  Rng rng(200 + static_cast<std::uint64_t>(n * 31 + m));
  const auto upper = random_kkt_upper(n, m, rng);
  SparseLdlt ldlt;
  ASSERT_EQ(ldlt.factor(upper), SparseLdlt::Status::kOk);
  Vector b(static_cast<std::size_t>(n + m));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const Vector x = ldlt.solve(b);
  const DenseMatrix full = full_from_upper(upper);
  const Vector ax = full.multiply(x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SparseLdltSizeTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{5, 3}, std::pair{10, 10},
                                           std::pair{40, 25}, std::pair{80, 60},
                                           std::pair{150, 100}));

TEST(SparseLdlt, InertiaMatchesQuasiDefiniteBlocks) {
  Rng rng(10);
  const std::int32_t n = 12, m = 8;
  const auto upper = random_kkt_upper(n, m, rng);
  SparseLdlt ldlt;
  ASSERT_EQ(ldlt.factor(upper), SparseLdlt::Status::kOk);
  int positives = 0, negatives = 0;
  for (double d : ldlt.d()) (d > 0 ? positives : negatives)++;
  EXPECT_EQ(positives, n);
  EXPECT_EQ(negatives, m);
}

TEST(SparseLdlt, RefactorWithSamePatternMatchesFreshFactor) {
  Rng rng(11);
  auto upper = random_kkt_upper(10, 6, rng);
  SparseLdlt ldlt;
  ASSERT_EQ(ldlt.factor(upper), SparseLdlt::Status::kOk);
  // Change values, keep the pattern.
  for (double& v : upper.mutable_values()) v *= 1.5;
  ASSERT_EQ(ldlt.refactor(upper), SparseLdlt::Status::kOk);
  Vector b(16);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const Vector x = ldlt.solve(b);
  const Vector ax = full_from_upper(upper).multiply(x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST(SparseLdlt, DetectsZeroPivot) {
  // Symmetric singular matrix: [[1, 1], [1, 1]].
  const std::vector<Triplet> triplets{{0, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}};
  const auto upper = SparseMatrix::from_triplets(2, 2, triplets);
  SparseLdlt ldlt;
  EXPECT_EQ(ldlt.factor(upper, identity_permutation(2)), SparseLdlt::Status::kZeroPivot);
}

TEST(SparseLdlt, SolveBeforeFactorThrows) {
  SparseLdlt ldlt;
  Vector b{1.0};
  EXPECT_THROW(ldlt.solve_in_place(b), PreconditionError);
}

TEST(SparseLdlt, AgreesWithDenseLdltOnDiagonal) {
  // Tridiagonal SPD matrix solved both sparse and dense.
  const std::int32_t n = 30;
  std::vector<Triplet> triplets;
  for (std::int32_t i = 0; i < n; ++i) {
    triplets.push_back({i, i, 4.0});
    if (i + 1 < n) triplets.push_back({i, i + 1, -1.0});
  }
  const auto upper = SparseMatrix::from_triplets(n, n, triplets);
  SparseLdlt sparse;
  ASSERT_EQ(sparse.factor(upper), SparseLdlt::Status::kOk);
  Ldlt dense;
  ASSERT_EQ(dense.factor(full_from_upper(upper)), FactorStatus::kOk);
  Rng rng(12);
  Vector b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const Vector xs = sparse.solve(b);
  const Vector xd = dense.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(xs[i], xd[i], 1e-10);
}

// ---------------------------------------------------------------------------
// Differential tests: the heap-selected minimum-degree ordering and the
// counting-pass symmetric permutation against the scan-based ordering and
// the triplet-built permutation they replaced.

/// The scan-based ordering the heap version replaced, kept verbatim as the
/// reference: at every step, a linear scan for the live vertex of smallest
/// degree, ties to the lowest index.
Permutation reference_minimum_degree_ordering(const SparseMatrix& a) {
  require(a.rows() == a.cols(), "minimum_degree_ordering: matrix must be square");
  const std::int32_t n = a.rows();
  // Build symmetric adjacency (pattern of A + A^T, no self-loops), as sorted
  // unique neighbour lists.
  std::vector<std::vector<std::int32_t>> adj(static_cast<std::size_t>(n));
  const auto col_ptr = a.col_ptr();
  const auto row_idx = a.row_idx();
  for (std::int32_t c = 0; c < n; ++c) {
    for (std::int32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      const std::int32_t r = row_idx[p];
      if (r == c) continue;
      adj[static_cast<std::size_t>(r)].push_back(c);
      adj[static_cast<std::size_t>(c)].push_back(r);
    }
  }
  for (auto& neighbours : adj) {
    std::sort(neighbours.begin(), neighbours.end());
    neighbours.erase(std::unique(neighbours.begin(), neighbours.end()), neighbours.end());
  }

  std::vector<bool> eliminated(static_cast<std::size_t>(n), false);
  Permutation perm;
  perm.reserve(static_cast<std::size_t>(n));

  // Bucketed degrees with lazy revalidation.
  std::vector<std::int32_t> degree(static_cast<std::size_t>(n));
  for (std::int32_t v = 0; v < n; ++v) {
    degree[static_cast<std::size_t>(v)] =
        static_cast<std::int32_t>(adj[static_cast<std::size_t>(v)].size());
  }

  auto prune = [&](std::vector<std::int32_t>& neighbours) {
    neighbours.erase(std::remove_if(neighbours.begin(), neighbours.end(),
                                    [&](std::int32_t v) {
                                      return eliminated[static_cast<std::size_t>(v)];
                                    }),
                     neighbours.end());
  };

  for (std::int32_t step = 0; step < n; ++step) {
    // Find the live vertex of minimum (up-to-date) degree.
    std::int32_t best = -1;
    std::int32_t best_degree = n + 1;
    for (std::int32_t v = 0; v < n; ++v) {
      if (eliminated[static_cast<std::size_t>(v)]) continue;
      if (degree[static_cast<std::size_t>(v)] < best_degree) {
        best = v;
        best_degree = degree[static_cast<std::size_t>(v)];
      }
    }
    ensure(best >= 0, "minimum_degree_ordering: no live vertex found");

    auto& neighbours = adj[static_cast<std::size_t>(best)];
    prune(neighbours);
    eliminated[static_cast<std::size_t>(best)] = true;
    perm.push_back(best);

    // Form the elimination clique among the surviving neighbours.
    for (std::int32_t u : neighbours) {
      auto& list = adj[static_cast<std::size_t>(u)];
      prune(list);
      // Merge (sorted) the clique into u's adjacency, skipping u itself.
      std::vector<std::int32_t> merged;
      merged.reserve(list.size() + neighbours.size());
      std::merge(list.begin(), list.end(), neighbours.begin(), neighbours.end(),
                 std::back_inserter(merged));
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      merged.erase(std::remove(merged.begin(), merged.end(), u), merged.end());
      list = std::move(merged);
      degree[static_cast<std::size_t>(u)] = static_cast<std::int32_t>(list.size());
    }
    neighbours.clear();
    neighbours.shrink_to_fit();
  }
  return perm;
}

/// The triplet-built symmetric permutation the counting passes replaced.
SparseMatrix reference_symmetric_permute_upper(const SparseMatrix& upper,
                                               const Permutation& perm) {
  const Permutation inv = invert_permutation(perm);
  const auto col_ptr = upper.col_ptr();
  const auto row_idx = upper.row_idx();
  const auto values = upper.values();
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(upper.nnz()));
  for (std::int32_t c = 0; c < upper.cols(); ++c) {
    for (std::int32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      std::int32_t new_r = inv[static_cast<std::size_t>(row_idx[p])];
      std::int32_t new_c = inv[static_cast<std::size_t>(c)];
      if (new_r > new_c) std::swap(new_r, new_c);
      triplets.push_back({new_r, new_c, values[p]});
    }
  }
  return SparseMatrix::from_triplets(upper.rows(), upper.cols(), triplets);
}

/// Ordering equal to the reference, and the permuted matrix (and the entry
/// positions it reports) equal to the triplet-built one, array by array.
void expect_matches_reference(const SparseMatrix& upper, const std::string& label) {
  SCOPED_TRACE(label);
  const Permutation perm = minimum_degree_ordering(upper);
  ASSERT_EQ(perm, reference_minimum_degree_ordering(upper));
  std::vector<std::int32_t> positions;
  const SparseMatrix permuted = symmetric_permute_upper(upper, perm, &positions);
  const SparseMatrix expected = reference_symmetric_permute_upper(upper, perm);
  const auto as_vector = [](auto span) { return std::vector(span.begin(), span.end()); };
  EXPECT_EQ(as_vector(permuted.col_ptr()), as_vector(expected.col_ptr()));
  EXPECT_EQ(as_vector(permuted.row_idx()), as_vector(expected.row_idx()));
  EXPECT_EQ(as_vector(permuted.values()), as_vector(expected.values()));
  ASSERT_EQ(positions.size(), static_cast<std::size_t>(upper.nnz()));
  for (std::size_t p = 0; p < positions.size(); ++p) {
    EXPECT_EQ(permuted.values()[static_cast<std::size_t>(positions[p])], upper.values()[p]);
  }
}

/// Sparse random KKT pattern [[P + I, A^T], [A, -I]]: each of the m rows of A
/// touches 1-5 of the n variables, and P couples ~n/4 random variable pairs.
SparseMatrix random_sparse_kkt_upper(std::int32_t n, std::int32_t m, Rng& rng) {
  std::vector<Triplet> triplets;
  for (std::int32_t i = 0; i < n; ++i) triplets.push_back({i, i, 1.0 + rng.uniform()});
  for (std::int32_t e = 0; e < n / 4; ++e) {
    const auto i = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
    const auto j = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
    triplets.push_back({std::min(i, j), std::max(i, j), rng.uniform(-0.1, 0.1)});
  }
  for (std::int32_t r = 0; r < m; ++r) {
    const auto touched = rng.uniform_int(1, 5);
    for (std::int64_t e = 0; e < touched; ++e) {
      const auto c = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
      triplets.push_back({c, n + r, rng.uniform(-1.0, 1.0)});
    }
    triplets.push_back({n + r, n + r, -1.0 - rng.uniform()});
  }
  return SparseMatrix::from_triplets(n + m, n + m, triplets);
}

/// The ADMM-shaped KKT upper triangle [[P + sigma I, A_S^T], [A_S, -d I]] of a
/// QP, keeping the rows of A flagged in `keep` (all rows when empty).
SparseMatrix kkt_pattern_upper(const qp::QpProblem& problem, const std::vector<bool>& keep = {}) {
  const auto n = static_cast<std::int32_t>(problem.num_variables());
  std::vector<std::int32_t> slot(problem.num_constraints(), -1);
  std::int32_t k = 0;
  for (std::size_t i = 0; i < slot.size(); ++i) {
    if (keep.empty() || keep[i]) slot[i] = k++;
  }
  std::vector<Triplet> triplets;
  const auto& p = problem.p;
  for (std::int32_t c = 0; c < p.cols(); ++c) {
    for (std::int32_t e = p.col_ptr()[c]; e < p.col_ptr()[c + 1]; ++e) {
      if (p.row_idx()[e] <= c) triplets.push_back({p.row_idx()[e], c, p.values()[e]});
    }
  }
  for (std::int32_t j = 0; j < n; ++j) triplets.push_back({j, j, 1e-6});
  const auto& a = problem.a;
  for (std::int32_t c = 0; c < a.cols(); ++c) {
    for (std::int32_t e = a.col_ptr()[c]; e < a.col_ptr()[c + 1]; ++e) {
      const std::int32_t r = slot[static_cast<std::size_t>(a.row_idx()[e])];
      if (r >= 0) triplets.push_back({c, n + r, a.values()[e]});
    }
  }
  for (std::int32_t r = 0; r < k; ++r) triplets.push_back({n + r, n + r, -1e-3});
  return SparseMatrix::from_triplets(n + k, n + k, triplets);
}

/// A paper_full window program over `horizon` periods; soft demand under a
/// binding quota makes it the best-response program of the quota game.
dspp::WindowProgram paper_full_window(std::size_t horizon, bool best_response) {
  static const scenario::ScenarioBundle bundle = scenario::build(scenario::preset("paper_full"));
  static const dspp::PairIndex pairs(bundle.model);
  dspp::WindowInputs inputs;
  inputs.initial_state.assign(pairs.num_pairs(), 1.0);
  for (std::size_t t = 0; t < horizon; ++t) {
    inputs.demand.push_back(bundle.demand.mean_rates(static_cast<double>(t + 9)));
    inputs.price.push_back(bundle.prices.server_prices(static_cast<double>(t + 9)));
  }
  if (best_response) {
    inputs.capacity_override = Vector(bundle.model.num_datacenters(), 25.0);
    inputs.soft_demand_penalty = 5.0;
  }
  return dspp::WindowProgram(bundle.model, pairs, std::move(inputs));
}

TEST(OrderingDifferential, RandomKktPatternsMatchScanOrdering) {
  const std::pair<std::int32_t, std::int32_t> shapes[] = {
      {10, 6}, {40, 24}, {150, 100}, {500, 300}, {900, 600}, {1800, 1200}};
  std::uint64_t seed = 300;
  for (const auto& [n, m] : shapes) {
    Rng rng(++seed);
    expect_matches_reference(random_sparse_kkt_upper(n, m, rng),
                             "random n=" + std::to_string(n) + " m=" + std::to_string(m));
  }
  // The dense-ish generator too, where cliques are large from the start.
  for (std::uint64_t s = 0; s < 3; ++s) {
    Rng rng(400 + s);
    expect_matches_reference(random_kkt_upper(30, 20, rng), "dense seed " + std::to_string(s));
  }
}

TEST(OrderingDifferential, AllTieGraphsMatchScanOrdering) {
  const std::int32_t n = 64;
  std::vector<Triplet> arrow, path, star;
  for (std::int32_t i = 0; i < n; ++i) {
    arrow.push_back({i, i, 4.0});
    path.push_back({i, i, 4.0});
    star.push_back({i, i, 4.0});
    if (i > 0) arrow.push_back({0, i, 1.0});                            // hub first
    if (i + 1 < n) path.push_back({i, i + 1, -1.0});                    // tridiagonal
    if (i != n / 2) star.push_back({std::min(i, n / 2), std::max(i, n / 2), 1.0});  // mid hub
  }
  expect_matches_reference(SparseMatrix::from_triplets(n, n, arrow), "arrowhead");
  expect_matches_reference(SparseMatrix::from_triplets(n, n, path), "path");
  expect_matches_reference(SparseMatrix::from_triplets(n, n, star), "star");
  expect_matches_reference(SparseMatrix::identity(n), "no edges");
  expect_matches_reference(SparseMatrix::from_triplets(0, 0, {}), "empty");
}

TEST(OrderingDifferential, PaperFullWindowKktsMatchScanOrdering) {
  const auto window = paper_full_window(5, /*best_response=*/false);
  expect_matches_reference(kkt_pattern_upper(window.problem()), "paper_full MPC window, W=5");
  const auto response = paper_full_window(3, /*best_response=*/true);
  expect_matches_reference(kkt_pattern_upper(response.problem()),
                           "soft-demand best response, W=3");
}

TEST(OrderingDifferential, PolishReducedKktsMatchScanOrdering) {
  // Reduced KKTs of the best-response program over 24 active sets: every
  // equality (state) row, plus a seeded share of the inequality rows from
  // 5% to 95%, the range a polish sees from a slack to a congested quota.
  const auto response = paper_full_window(3, /*best_response=*/true);
  const auto& problem = response.problem();
  for (std::uint64_t s = 0; s < 24; ++s) {
    Rng rng(500 + s);
    const double share = 0.05 + 0.9 * static_cast<double>(s) / 23.0;
    std::vector<bool> keep(problem.num_constraints());
    for (std::size_t i = 0; i < keep.size(); ++i) {
      keep[i] = problem.lower[i] == problem.upper[i] || rng.uniform() < share;
    }
    expect_matches_reference(kkt_pattern_upper(problem, keep),
                             "polish active set " + std::to_string(s));
  }
}

TEST(SparseLdlt, RefactorRejectsChangedPatternAndKeepsFactor) {
  Rng rng(13);
  const auto upper = random_kkt_upper(10, 6, rng);
  SparseLdlt ldlt;
  ASSERT_EQ(ldlt.factor(upper), SparseLdlt::Status::kOk);
  Vector b(16);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const Vector before = ldlt.solve(b);
  // Same nnz and column counts, one row index moved: a different pattern.
  std::vector<Triplet> triplets;
  for (std::int32_t c = 0; c < upper.cols(); ++c) {
    for (std::int32_t p = upper.col_ptr()[c]; p < upper.col_ptr()[c + 1]; ++p) {
      triplets.push_back({upper.row_idx()[p], c, upper.values()[p]});
    }
  }
  const auto changed = std::find_if(triplets.begin(), triplets.end(), [&](const Triplet& t) {
    return t.row < t.col && std::none_of(triplets.begin(), triplets.end(), [&](const Triplet& u) {
             return u.col == t.col && u.row == t.row - 1;
           });
  });
  ASSERT_NE(changed, triplets.end());
  --changed->row;
  EXPECT_EQ(ldlt.refactor(SparseMatrix::from_triplets(16, 16, triplets)),
            SparseLdlt::Status::kPatternMismatch);
  EXPECT_EQ(ldlt.solve(b), before);
}

TEST(SparseLdlt, RefactorIsBitIdenticalToFreshFactorWithSameOrdering) {
  Rng rng(14);
  auto upper = random_sparse_kkt_upper(120, 80, rng);
  SparseLdlt kept;
  ASSERT_EQ(kept.factor(upper), SparseLdlt::Status::kOk);
  for (double& v : upper.mutable_values()) v *= 1.0 + 0.5 * rng.uniform();
  ASSERT_EQ(kept.refactor(upper), SparseLdlt::Status::kOk);
  SparseLdlt fresh;
  ASSERT_EQ(fresh.factor(upper, minimum_degree_ordering(upper)), SparseLdlt::Status::kOk);
  EXPECT_TRUE(std::ranges::equal(kept.d(), fresh.d()));
  Vector b(200);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  EXPECT_EQ(kept.solve(b), fresh.solve(b));
}

}  // namespace

// ---------------------------------------------------------------------------
// Differential tests: the gather-form solve (rows of L forward, fused D
// division and inverse permutation backward) against the column-form solve
// it replaced.

/// Read access to a factor's internals (a friend of SparseLdlt).
struct SparseLdltProbe {
  /// The column-form solve the gather form replaced, kept verbatim as the
  /// reference: permute in, scatter each column of L (skipping zero x[c]),
  /// divide by D, dot each column of L backwards, permute out.
  static void reference_solve(const SparseLdlt& f, Vector& b) {
    require(f.status_ == SparseLdlt::Status::kOk,
            "SparseLdlt::solve before successful factor()");
    require(b.size() == static_cast<std::size_t>(f.n_), "SparseLdlt::solve: size mismatch");
    Vector x(static_cast<std::size_t>(f.n_));
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = b[static_cast<std::size_t>(f.perm_[i])];
    }
    // L y = x (unit lower triangular, stored by columns).
    for (std::int32_t c = 0; c < f.n_; ++c) {
      const double xc = x[static_cast<std::size_t>(c)];
      if (xc == 0.0) continue;
      for (std::int32_t p = f.l_col_ptr_[static_cast<std::size_t>(c)];
           p < f.l_col_ptr_[static_cast<std::size_t>(c) + 1]; ++p) {
        x[static_cast<std::size_t>(f.l_row_idx_[static_cast<std::size_t>(p)])] -=
            f.l_values_[static_cast<std::size_t>(p)] * xc;
      }
    }
    // D z = y.
    for (std::int32_t i = 0; i < f.n_; ++i) {
      x[static_cast<std::size_t>(i)] /= f.d_[static_cast<std::size_t>(i)];
    }
    // L^T w = z.
    for (std::int32_t c = f.n_; c-- > 0;) {
      double total = x[static_cast<std::size_t>(c)];
      for (std::int32_t p = f.l_col_ptr_[static_cast<std::size_t>(c)];
           p < f.l_col_ptr_[static_cast<std::size_t>(c) + 1]; ++p) {
        total -= f.l_values_[static_cast<std::size_t>(p)] *
                 x[static_cast<std::size_t>(f.l_row_idx_[static_cast<std::size_t>(p)])];
      }
      x[static_cast<std::size_t>(c)] = total;
    }
    // Inverse-permute back into the caller's vector (perm_[new] = old).
    for (std::size_t i = 0; i < x.size(); ++i) {
      b[static_cast<std::size_t>(f.perm_[i])] = x[i];
    }
  }

  static const std::vector<std::int32_t>& row_ptr(const SparseLdlt& f) { return f.l_row_ptr_; }
  static const std::vector<std::int32_t>& row_cols(const SparseLdlt& f) { return f.l_row_cols_; }
};

namespace {

bool bitwise_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Solves several right-hand sides with both solves and expects the same
/// bits: dense ones with ~40% exact zeros of either sign, all-zero ones of
/// mixed sign, and one-hot ones (long runs of zeros in the forward pass).
void expect_solve_matches_reference(const SparseLdlt& ldlt, Rng& rng, const std::string& label) {
  SCOPED_TRACE(label);
  const std::size_t n = ldlt.d().size();
  std::vector<Vector> rhs;
  for (int k = 0; k < 3; ++k) {
    Vector b(n);
    for (double& v : b) {
      const double u = rng.uniform();
      v = u < 0.2 ? 0.0 : u < 0.4 ? -0.0 : rng.uniform(-1.0, 1.0);
    }
    rhs.push_back(std::move(b));
  }
  Vector zeros(n);
  for (std::size_t i = 0; i < n; ++i) zeros[i] = i % 3 == 0 ? -0.0 : 0.0;
  rhs.push_back(zeros);
  for (int k = 0; k < 2 && n > 0; ++k) {
    Vector one_hot = zeros;
    one_hot[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))] =
        rng.uniform(-2.0, 2.0);
    rhs.push_back(std::move(one_hot));
  }
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    Vector expected = rhs[k];
    SparseLdltProbe::reference_solve(ldlt, expected);
    Vector got = rhs[k];
    ldlt.solve_in_place(got);
    EXPECT_TRUE(bitwise_equal(got, expected)) << "right-hand side " << k;
  }
}

/// New values on the same pattern, as an adaptive-rho or sigma update
/// makes them: positive diagonal entries grow by up to 2x and negative ones
/// scale by 10^[-1, 1], which keeps a quasi-definite matrix quasi-definite.
SparseMatrix rescaled_diagonal(SparseMatrix upper, Rng& rng) {
  const auto col_ptr = upper.col_ptr();
  const auto row_idx = upper.row_idx();
  const std::span<double> values = upper.mutable_values();
  for (std::int32_t c = 0; c < upper.cols(); ++c) {
    for (std::int32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      if (row_idx[p] != c) continue;
      double& v = values[static_cast<std::size_t>(p)];
      v *= v > 0.0 ? 1.0 + rng.uniform() : std::pow(10.0, rng.uniform(-1.0, 1.0));
    }
  }
  return upper;
}

/// factor() then refactor() with new values, each checked against the
/// column-form solve.
void expect_factor_and_refactor_match_reference(const SparseMatrix& upper, Rng& rng,
                                                const std::string& label) {
  SparseLdlt ldlt;
  ASSERT_EQ(ldlt.factor(upper), SparseLdlt::Status::kOk) << label;
  expect_solve_matches_reference(ldlt, rng, label + ", factor");
  ASSERT_EQ(ldlt.refactor(rescaled_diagonal(upper, rng)), SparseLdlt::Status::kOk) << label;
  expect_solve_matches_reference(ldlt, rng, label + ", refactor");
}

TEST(SolveDifferential, RandomKktsMatchColumnSolve) {
  const std::pair<std::int32_t, std::int32_t> shapes[] = {
      {10, 6}, {40, 24}, {150, 100}, {500, 300}, {900, 600}, {1800, 1200}};
  Rng rng(700);
  for (const auto& [n, m] : shapes) {
    expect_factor_and_refactor_match_reference(
        random_sparse_kkt_upper(n, m, rng), rng,
        "random n=" + std::to_string(n) + " m=" + std::to_string(m));
  }
  expect_factor_and_refactor_match_reference(random_kkt_upper(30, 20, rng), rng, "dense 30x20");
}

TEST(SolveDifferential, PaperFullKktsMatchColumnSolve) {
  Rng rng(701);
  const auto window = paper_full_window(5, /*best_response=*/false);
  expect_factor_and_refactor_match_reference(kkt_pattern_upper(window.problem()), rng,
                                             "paper_full MPC window, W=5");
  const auto response = paper_full_window(3, /*best_response=*/true);
  const auto& problem = response.problem();
  expect_factor_and_refactor_match_reference(kkt_pattern_upper(problem), rng,
                                             "soft-demand best response, W=3");
  // Polish-reduced KKTs over active sets from slack to congested.
  for (std::uint64_t s = 0; s < 6; ++s) {
    const double share = 0.05 + 0.18 * static_cast<double>(s);
    std::vector<bool> keep(problem.num_constraints());
    for (std::size_t i = 0; i < keep.size(); ++i) {
      keep[i] = problem.lower[i] == problem.upper[i] || rng.uniform() < share;
    }
    expect_factor_and_refactor_match_reference(kkt_pattern_upper(problem, keep), rng,
                                               "polish active set " + std::to_string(s));
  }
}

/// The upper triangle of a tree-structured SPD matrix on n vertices whose
/// every vertex's parent has a higher index: eliminated in index order it
/// has no fill, so nnz(L) = n - 1 whatever the tree.
SparseMatrix tree_upper(const std::vector<std::int32_t>& parent, Rng& rng) {
  const auto n = static_cast<std::int32_t>(parent.size()) + 1;
  std::vector<Triplet> triplets;
  for (std::int32_t i = 0; i < n; ++i) triplets.push_back({i, i, 4.0 + rng.uniform()});
  for (std::int32_t i = 0; i + 1 < n; ++i) {
    triplets.push_back({i, parent[static_cast<std::size_t>(i)], rng.uniform(-1.0, 1.0)});
  }
  return SparseMatrix::from_triplets(n, n, triplets);
}

TEST(SolveDifferential, NewPatternWithSameSizeRebuildsRowCopy) {
  // A path and a random tree: the same n and nnz(L), different rows of L.
  const std::int32_t n = 300;
  Rng rng(702);
  std::vector<std::int32_t> path(static_cast<std::size_t>(n - 1)), tree(path.size());
  for (std::int32_t i = 0; i + 1 < n; ++i) {
    path[static_cast<std::size_t>(i)] = i + 1;
    tree[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(rng.uniform_int(i + 1, n - 1));
  }
  const SparseMatrix first = tree_upper(path, rng);
  const SparseMatrix second = tree_upper(tree, rng);
  SparseLdlt ldlt;
  ASSERT_EQ(ldlt.factor(first, identity_permutation(n)), SparseLdlt::Status::kOk);
  expect_solve_matches_reference(ldlt, rng, "path");
  const auto path_cols = SparseLdltProbe::row_cols(ldlt);
  ASSERT_EQ(ldlt.factor(second, identity_permutation(n)), SparseLdlt::Status::kOk);
  EXPECT_EQ(ldlt.l_nnz(), n - 1);
  EXPECT_NE(SparseLdltProbe::row_cols(ldlt), path_cols);
  expect_solve_matches_reference(ldlt, rng, "tree after path");
  ASSERT_EQ(ldlt.refactor(rescaled_diagonal(second, rng)), SparseLdlt::Status::kOk);
  expect_solve_matches_reference(ldlt, rng, "tree, refactored");
  // Columns ascend within every row of the copy.
  const auto& row_ptr = SparseLdltProbe::row_ptr(ldlt);
  const auto& cols = SparseLdltProbe::row_cols(ldlt);
  for (std::size_t r = 0; r + 1 < row_ptr.size(); ++r) {
    EXPECT_TRUE(std::is_sorted(cols.begin() + row_ptr[r], cols.begin() + row_ptr[r + 1]));
  }
}

TEST(SparseMatrix, FromCscAdoptsSortedColumnsAndRejectsBadOnes) {
  const auto a = SparseMatrix::from_csc(3, 2, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0});
  EXPECT_EQ(a.coefficient(2, 0), 2.0);
  EXPECT_EQ(a.coefficient(1, 1), 3.0);
  EXPECT_THROW(SparseMatrix::from_csc(3, 2, {0, 2, 3}, {2, 0, 1}, {1.0, 2.0, 3.0}),
               PreconditionError);  // unsorted column
  EXPECT_THROW(SparseMatrix::from_csc(3, 2, {0, 2, 3}, {0, 3, 1}, {1.0, 2.0, 3.0}),
               PreconditionError);  // row out of range
  EXPECT_THROW(SparseMatrix::from_csc(3, 2, {0, 2}, {0, 2}, {1.0, 2.0}),
               PreconditionError);  // col_ptr too short
}

}  // namespace
}  // namespace gp::linalg
