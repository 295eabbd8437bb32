#include "linalg/sparse_ldlt.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

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

  permuted_ = symmetric_permute_upper(upper, perm_, &positions_);
  input_col_ptr_.assign(upper.col_ptr().begin(), upper.col_ptr().end());
  input_row_idx_.assign(upper.row_idx().begin(), upper.row_idx().end());

  // --- Symbolic: elimination tree and exact column and row counts of L
  // (counted into l_col_ptr_[i + 1] and l_row_ptr_[k + 1], then summed into
  // pointers). ---
  const auto n = static_cast<std::size_t>(n_);
  parent_.assign(n, -1);
  l_col_ptr_.assign(n + 1, 0);
  l_row_ptr_.assign(n + 1, 0);
  flag_.assign(n, -1);
  const auto col_ptr = permuted_.col_ptr();
  const auto row_idx = permuted_.row_idx();
  for (std::int32_t k = 0; k < n_; ++k) {
    flag_[static_cast<std::size_t>(k)] = k;
    for (std::int32_t p = col_ptr[k]; p < col_ptr[k + 1]; ++p) {
      std::int32_t i = row_idx[p];
      // Upper-triangular input guarantees i <= k.
      while (flag_[static_cast<std::size_t>(i)] != k) {
        if (parent_[static_cast<std::size_t>(i)] == -1) parent_[static_cast<std::size_t>(i)] = k;
        ++l_col_ptr_[static_cast<std::size_t>(i) + 1];  // L(k, i) exists
        ++l_row_ptr_[static_cast<std::size_t>(k) + 1];
        flag_[static_cast<std::size_t>(i)] = k;
        i = parent_[static_cast<std::size_t>(i)];
      }
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    l_col_ptr_[c + 1] += l_col_ptr_[c];
    l_row_ptr_[c + 1] += l_row_ptr_[c];
  }

  // --- The pattern of L by columns: the same etree walk appends row k to
  // every column i of row k's pattern, so rows ascend within each column.
  // Then its transpose, where columns ascend within each row. ---
  const auto l_nnz = static_cast<std::size_t>(l_col_ptr_.back());
  l_row_idx_.resize(l_nnz);
  l_row_cols_.resize(l_nnz);
  l_values_.resize(l_nnz);
  l_row_values_.resize(l_nnz);
  l_next_.assign(l_col_ptr_.begin(), l_col_ptr_.end() - 1);
  flag_.assign(n, -1);
  for (std::int32_t k = 0; k < n_; ++k) {
    flag_[static_cast<std::size_t>(k)] = k;
    for (std::int32_t p = col_ptr[k]; p < col_ptr[k + 1]; ++p) {
      for (std::int32_t i = row_idx[p]; flag_[static_cast<std::size_t>(i)] != k;
           i = parent_[static_cast<std::size_t>(i)]) {
        l_row_idx_[static_cast<std::size_t>(l_next_[static_cast<std::size_t>(i)]++)] = k;
        flag_[static_cast<std::size_t>(i)] = k;
      }
    }
  }
  l_next_.assign(l_row_ptr_.begin(), l_row_ptr_.end() - 1);
  for (std::int32_t c = 0; c < n_; ++c) {
    for (std::int32_t p = l_col_ptr_[static_cast<std::size_t>(c)];
         p < l_col_ptr_[static_cast<std::size_t>(c) + 1]; ++p) {
      const auto r = static_cast<std::size_t>(l_row_idx_[static_cast<std::size_t>(p)]);
      l_row_cols_[static_cast<std::size_t>(l_next_[r]++)] = c;
    }
  }

  return numeric_factor();
}

SparseLdlt::Status SparseLdlt::refactor(const SparseMatrix& upper) {
  if (l_col_ptr_.empty()) return Status::kNotFactored;
  require(upper.rows() == n_ && upper.cols() == n_, "SparseLdlt::refactor: shape mismatch");
  // The symbolic analysis is only valid for the exact pattern it was run on;
  // a changed pattern would silently corrupt L, so it is rejected here (the
  // previous factorization stays usable).
  const auto col_ptr = upper.col_ptr();
  const auto row_idx = upper.row_idx();
  if (!std::ranges::equal(col_ptr, input_col_ptr_) ||
      !std::ranges::equal(row_idx, input_row_idx_)) {
    return Status::kPatternMismatch;
  }
  const auto values = upper.values();
  const std::span<double> permuted_values = permuted_.mutable_values();
  for (std::size_t p = 0; p < values.size(); ++p) {
    permuted_values[static_cast<std::size_t>(positions_[p])] = values[p];
  }
  return numeric_factor();
}

SparseLdlt::Status SparseLdlt::numeric_factor() {
  const auto col_ptr = permuted_.col_ptr();
  const auto row_idx = permuted_.row_idx();
  const auto values = permuted_.values();

  d_.assign(static_cast<std::size_t>(n_), 0.0);

  auto& l_next = l_next_;
  auto& flag = flag_;
  auto& pattern = pattern_;
  auto& work = work_;
  l_next.assign(l_col_ptr_.begin(), l_col_ptr_.end() - 1);
  flag.assign(static_cast<std::size_t>(n_), -1);
  pattern.assign(static_cast<std::size_t>(n_), 0);
  work.assign(static_cast<std::size_t>(n_), 0.0);

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
      // factor() laid out the pattern: this slot's row index is already k.
      l_values_[static_cast<std::size_t>(l_next[static_cast<std::size_t>(i)]++)] = lki;
    }

    if (std::abs(dk) < kPivotTolerance) {
      status_ = Status::kZeroPivot;
      return status_;
    }
    d_[static_cast<std::size_t>(k)] = dk;
  }

  // Refresh the row copy: walking the columns in ascending order fills each
  // row's slots in ascending column order, matching l_row_cols_.
  l_next.assign(l_row_ptr_.begin(), l_row_ptr_.end() - 1);
  for (std::int32_t c = 0; c < n_; ++c) {
    for (std::int32_t p = l_col_ptr_[static_cast<std::size_t>(c)];
         p < l_col_ptr_[static_cast<std::size_t>(c) + 1]; ++p) {
      const auto r = static_cast<std::size_t>(l_row_idx_[static_cast<std::size_t>(p)]);
      l_row_values_[static_cast<std::size_t>(l_next[r]++)] = l_values_[static_cast<std::size_t>(p)];
    }
  }
  status_ = Status::kOk;
  return status_;
}

void SparseLdlt::solve_in_place(Vector& b) const {
  require(status_ == Status::kOk, "SparseLdlt::solve before successful factor()");
  require(b.size() == static_cast<std::size_t>(n_), "SparseLdlt::solve: size mismatch");
  solve_scratch_.resize(static_cast<std::size_t>(n_));
  double* x = solve_scratch_.data();
  const std::int32_t* perm = perm_.data();  // perm[new] = old
  // L y = P b, one row of L at a time: each row subtracts its terms in
  // ascending column order, as the column-by-column scatter does. Where the
  // scatter skips a zero x[c], the select subtracts +0.0, which leaves every
  // value (-0.0 included) unchanged, so y is bitwise the scatter's.
  const std::int32_t* row_ptr = l_row_ptr_.data();
  const std::int32_t* row_cols = l_row_cols_.data();
  const double* row_values = l_row_values_.data();
  for (std::int32_t r = 0; r < n_; ++r) {
    double acc = b[static_cast<std::size_t>(perm[r])];
    for (std::int32_t q = row_ptr[r]; q < row_ptr[r + 1]; ++q) {
      const double xc = x[row_cols[q]];
      acc -= xc == 0.0 ? 0.0 : row_values[q] * xc;
    }
    x[r] = acc;
  }
  // D z = y and L^T w = z in one backward pass, storing each w[c] both for
  // the columns still to come and, inverse-permuted, into the caller's b.
  const std::int32_t* col_ptr = l_col_ptr_.data();
  const std::int32_t* col_rows = l_row_idx_.data();
  const double* col_values = l_values_.data();
  const double* d = d_.data();
  for (std::int32_t c = n_; c-- > 0;) {
    double total = x[c] / d[c];
    for (std::int32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      total -= col_values[p] * x[col_rows[p]];
    }
    x[c] = total;
    b[static_cast<std::size_t>(perm[c])] = total;
  }
}

Vector SparseLdlt::solve(std::span<const double> b) const {
  Vector x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

std::int64_t SparseLdlt::l_nnz() const { return static_cast<std::int64_t>(l_values_.size()); }

}  // namespace gp::linalg
