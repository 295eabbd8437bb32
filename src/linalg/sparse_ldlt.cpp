#include "linalg/sparse_ldlt.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gp::linalg {

namespace {
constexpr double kPivotTolerance = 1e-14;
}

SparseLdlt::Status SparseLdlt::factor(const SparseMatrix& upper) {
  return factor(upper, minimum_degree_ordering(upper));
}

SparseLdlt::Status SparseLdlt::factor(const SparseMatrix& upper, Permutation perm) {
  require(upper.rows() == upper.cols(), "SparseLdlt: matrix must be square");
  require(static_cast<std::int32_t>(perm.size()) == upper.rows(),
          "SparseLdlt: permutation size mismatch");
  n_ = upper.rows();
  perm_ = std::move(perm);

  const SparseMatrix permuted = symmetric_permute_upper(upper, perm_);
  pattern_col_ptr_.assign(permuted.col_ptr().begin(), permuted.col_ptr().end());
  pattern_row_idx_.assign(permuted.row_idx().begin(), permuted.row_idx().end());

  // --- Symbolic: elimination tree and exact column counts of L. ---
  parent_.assign(static_cast<std::size_t>(n_), -1);
  std::vector<std::int32_t> l_nnz_per_col(static_cast<std::size_t>(n_), 0);
  std::vector<std::int32_t> flag(static_cast<std::size_t>(n_), -1);
  const auto col_ptr = permuted.col_ptr();
  const auto row_idx = permuted.row_idx();
  for (std::int32_t k = 0; k < n_; ++k) {
    parent_[static_cast<std::size_t>(k)] = -1;
    flag[static_cast<std::size_t>(k)] = k;
    for (std::int32_t p = col_ptr[k]; p < col_ptr[k + 1]; ++p) {
      std::int32_t i = row_idx[p];
      // Upper-triangular input guarantees i <= k.
      while (flag[static_cast<std::size_t>(i)] != k) {
        if (parent_[static_cast<std::size_t>(i)] == -1) parent_[static_cast<std::size_t>(i)] = k;
        ++l_nnz_per_col[static_cast<std::size_t>(i)];  // L(k, i) exists
        flag[static_cast<std::size_t>(i)] = k;
        i = parent_[static_cast<std::size_t>(i)];
      }
    }
  }
  l_col_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (std::int32_t c = 0; c < n_; ++c) {
    l_col_ptr_[static_cast<std::size_t>(c) + 1] =
        l_col_ptr_[static_cast<std::size_t>(c)] + l_nnz_per_col[static_cast<std::size_t>(c)];
  }

  return numeric_factor(permuted);
}

SparseLdlt::Status SparseLdlt::refactor(const SparseMatrix& upper) {
  if (l_col_ptr_.empty()) return Status::kNotFactored;
  require(upper.rows() == n_ && upper.cols() == n_, "SparseLdlt::refactor: shape mismatch");
  const SparseMatrix permuted = symmetric_permute_upper(upper, perm_);
  // The symbolic analysis is only valid for the exact pattern it was run on;
  // a changed pattern would silently corrupt L, so it is rejected here (the
  // previous factorization stays usable).
  const auto col_ptr = permuted.col_ptr();
  const auto row_idx = permuted.row_idx();
  if (!std::equal(col_ptr.begin(), col_ptr.end(), pattern_col_ptr_.begin(),
                  pattern_col_ptr_.end()) ||
      !std::equal(row_idx.begin(), row_idx.end(), pattern_row_idx_.begin(),
                  pattern_row_idx_.end())) {
    return Status::kPatternMismatch;
  }
  return numeric_factor(permuted);
}

SparseLdlt::Status SparseLdlt::numeric_factor(const SparseMatrix& permuted_upper) {
  const auto col_ptr = permuted_upper.col_ptr();
  const auto row_idx = permuted_upper.row_idx();
  const auto values = permuted_upper.values();

  l_row_idx_.assign(static_cast<std::size_t>(l_col_ptr_.back()), 0);
  l_values_.assign(static_cast<std::size_t>(l_col_ptr_.back()), 0.0);
  d_.assign(static_cast<std::size_t>(n_), 0.0);

  std::vector<std::int32_t> l_next(l_col_ptr_.begin(), l_col_ptr_.end() - 1);
  std::vector<std::int32_t> flag(static_cast<std::size_t>(n_), -1);
  std::vector<std::int32_t> pattern(static_cast<std::size_t>(n_), 0);
  Vector work(static_cast<std::size_t>(n_), 0.0);

  for (std::int32_t k = 0; k < n_; ++k) {
    // Scatter column k of the (permuted) upper triangle into the workspace
    // and compute the nonzero pattern of row k of L via etree paths.
    std::int32_t top = n_;
    flag[static_cast<std::size_t>(k)] = k;
    for (std::int32_t p = col_ptr[k]; p < col_ptr[k + 1]; ++p) {
      std::int32_t i = row_idx[p];
      work[static_cast<std::size_t>(i)] += values[p];
      std::int32_t len = 0;
      while (flag[static_cast<std::size_t>(i)] != k) {
        pattern[static_cast<std::size_t>(len++)] = i;
        flag[static_cast<std::size_t>(i)] = k;
        i = parent_[static_cast<std::size_t>(i)];
      }
      while (len > 0) pattern[static_cast<std::size_t>(--top)] = pattern[static_cast<std::size_t>(--len)];
    }

    double dk = work[static_cast<std::size_t>(k)];
    work[static_cast<std::size_t>(k)] = 0.0;

    // Up-looking sparse triangular solve over the pattern (in etree order).
    for (; top < n_; ++top) {
      const std::int32_t i = pattern[static_cast<std::size_t>(top)];
      const double yi = work[static_cast<std::size_t>(i)];
      work[static_cast<std::size_t>(i)] = 0.0;
      for (std::int32_t p = l_col_ptr_[static_cast<std::size_t>(i)];
           p < l_next[static_cast<std::size_t>(i)]; ++p) {
        work[static_cast<std::size_t>(l_row_idx_[static_cast<std::size_t>(p)])] -=
            l_values_[static_cast<std::size_t>(p)] * yi;
      }
      const double lki = yi / d_[static_cast<std::size_t>(i)];
      dk -= lki * yi;
      const auto slot = static_cast<std::size_t>(l_next[static_cast<std::size_t>(i)]++);
      l_row_idx_[slot] = k;
      l_values_[slot] = lki;
    }

    if (std::abs(dk) < kPivotTolerance) {
      status_ = Status::kZeroPivot;
      return status_;
    }
    d_[static_cast<std::size_t>(k)] = dk;
  }
  status_ = Status::kOk;
  return status_;
}

void SparseLdlt::solve_in_place(Vector& b) const {
  require(status_ == Status::kOk, "SparseLdlt::solve before successful factor()");
  require(b.size() == static_cast<std::size_t>(n_), "SparseLdlt::solve: size mismatch");
  // Permute into the persistent scratch (allocation-free after first use).
  solve_scratch_.resize(static_cast<std::size_t>(n_));
  Vector& x = solve_scratch_;
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = b[static_cast<std::size_t>(perm_[i])];
  }
  // L y = x (unit lower triangular, stored by columns).
  for (std::int32_t c = 0; c < n_; ++c) {
    const double xc = x[static_cast<std::size_t>(c)];
    if (xc == 0.0) continue;
    for (std::int32_t p = l_col_ptr_[static_cast<std::size_t>(c)];
         p < l_col_ptr_[static_cast<std::size_t>(c) + 1]; ++p) {
      x[static_cast<std::size_t>(l_row_idx_[static_cast<std::size_t>(p)])] -=
          l_values_[static_cast<std::size_t>(p)] * xc;
    }
  }
  // D z = y.
  for (std::int32_t i = 0; i < n_; ++i) x[static_cast<std::size_t>(i)] /= d_[static_cast<std::size_t>(i)];
  // L^T w = z.
  for (std::int32_t c = n_; c-- > 0;) {
    double total = x[static_cast<std::size_t>(c)];
    for (std::int32_t p = l_col_ptr_[static_cast<std::size_t>(c)];
         p < l_col_ptr_[static_cast<std::size_t>(c) + 1]; ++p) {
      total -= l_values_[static_cast<std::size_t>(p)] *
               x[static_cast<std::size_t>(l_row_idx_[static_cast<std::size_t>(p)])];
    }
    x[static_cast<std::size_t>(c)] = total;
  }
  // Inverse-permute back into the caller's vector (perm_[new] = old).
  for (std::size_t i = 0; i < x.size(); ++i) {
    b[static_cast<std::size_t>(perm_[i])] = x[i];
  }
}

Vector SparseLdlt::solve(std::span<const double> b) const {
  Vector x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

std::int64_t SparseLdlt::l_nnz() const { return static_cast<std::int64_t>(l_values_.size()); }

}  // namespace gp::linalg
