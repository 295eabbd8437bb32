#include "linalg/ordering.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/error.hpp"

namespace gp::linalg {

Permutation identity_permutation(std::int32_t n) {
  Permutation perm(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  return perm;
}

Permutation invert_permutation(const Permutation& perm) {
  Permutation inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inv[static_cast<std::size_t>(perm[i])] = static_cast<std::int32_t>(i);
  }
  return inv;
}

Permutation minimum_degree_ordering(const SparseMatrix& a) {
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

  // degree[v] is v's exact live degree: it changes only when a neighbour is
  // eliminated, and every such neighbour is recomputed below. The min-heap
  // holds (degree << 32 | vertex) keys, so the smallest key is the smallest
  // degree with ties to the lowest index; an entry whose vertex is gone or
  // whose degree has since changed is stale and dropped when popped.
  std::vector<std::int32_t> degree(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> heap(static_cast<std::size_t>(n));
  const auto key = [](std::int32_t d, std::int32_t v) {
    return (static_cast<std::uint64_t>(d) << 32) | static_cast<std::uint32_t>(v);
  };
  for (std::int32_t v = 0; v < n; ++v) {
    degree[static_cast<std::size_t>(v)] =
        static_cast<std::int32_t>(adj[static_cast<std::size_t>(v)].size());
    heap[static_cast<std::size_t>(v)] = key(degree[static_cast<std::size_t>(v)], v);
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());

  std::vector<std::int32_t> merged;  // reused merge buffer
  for (std::int32_t step = 0; step < n; ++step) {
    std::int32_t best = -1;
    while (best < 0) {
      ensure(!heap.empty(), "minimum_degree_ordering: no live vertex found");
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const std::uint64_t top = heap.back();
      heap.pop_back();
      const auto v = static_cast<std::int32_t>(top & 0xffffffffu);
      if (!eliminated[static_cast<std::size_t>(v)] &&
          degree[static_cast<std::size_t>(v)] == static_cast<std::int32_t>(top >> 32)) {
        best = v;
      }
    }

    auto& neighbours = adj[static_cast<std::size_t>(best)];
    std::erase_if(neighbours,
                  [&](std::int32_t v) { return eliminated[static_cast<std::size_t>(v)]; });
    eliminated[static_cast<std::size_t>(best)] = true;
    perm.push_back(best);

    // Form the elimination clique among the surviving neighbours: each
    // neighbour u's list becomes (its live entries) U (the clique) \ {u},
    // merged in one sorted pass.
    for (std::int32_t u : neighbours) {
      auto& list = adj[static_cast<std::size_t>(u)];
      merged.clear();
      auto it = list.begin();
      auto jt = neighbours.begin();
      while (it != list.end() || jt != neighbours.end()) {
        std::int32_t v;
        if (jt == neighbours.end() || (it != list.end() && *it < *jt)) {
          v = *it++;
          if (eliminated[static_cast<std::size_t>(v)]) continue;
        } else {
          if (it != list.end() && *it == *jt) ++it;
          v = *jt++;
        }
        if (v != u) merged.push_back(v);
      }
      list.swap(merged);
      degree[static_cast<std::size_t>(u)] = static_cast<std::int32_t>(list.size());
      heap.push_back(key(degree[static_cast<std::size_t>(u)], u));
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    neighbours.clear();
    neighbours.shrink_to_fit();
  }
  return perm;
}

SparseMatrix symmetric_permute_upper(const SparseMatrix& upper, const Permutation& perm,
                                     std::vector<std::int32_t>* positions) {
  require(upper.rows() == upper.cols(), "symmetric_permute_upper: matrix must be square");
  require(static_cast<std::int32_t>(perm.size()) == upper.rows(),
          "symmetric_permute_upper: permutation size mismatch");
  const auto n = static_cast<std::size_t>(upper.rows());
  const auto nnz = static_cast<std::size_t>(upper.nnz());
  const Permutation inv = invert_permutation(perm);
  const auto col_ptr = upper.col_ptr();
  const auto row_idx = upper.row_idx();
  const auto values = upper.values();

  // Two counting passes instead of a triplet sort: bucket the entries by
  // their new row, then deal the buckets out in row order into their new
  // columns, which leaves every column sorted by row. Entry (r, c), r <= c,
  // lands at (min, max) of (inv[r], inv[c]); distinct entries never
  // collide, so nothing is summed.
  std::vector<std::int32_t> row_next(n + 1, 0);
  std::vector<std::int32_t> out_col_ptr(n + 1, 0);
  std::vector<std::int32_t> new_col(nnz);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::int32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      const std::int32_t r = row_idx[p];
      ensure(static_cast<std::size_t>(r) <= c,
             "symmetric_permute_upper: input must be upper triangular");
      const std::int32_t a = inv[static_cast<std::size_t>(r)];
      const std::int32_t b = inv[c];
      new_col[static_cast<std::size_t>(p)] = std::max(a, b);
      ++row_next[static_cast<std::size_t>(std::min(a, b)) + 1];
      ++out_col_ptr[static_cast<std::size_t>(std::max(a, b)) + 1];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    row_next[i + 1] += row_next[i];
    out_col_ptr[i + 1] += out_col_ptr[i];
  }
  // by_row lists the input entries bucketed by new row; filling bucket i
  // advances row_next[i] from the bucket's start to its end.
  std::vector<std::int32_t> by_row(nnz);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::int32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      const auto new_row = static_cast<std::size_t>(
          std::min(inv[static_cast<std::size_t>(row_idx[p])], inv[c]));
      by_row[static_cast<std::size_t>(row_next[new_row]++)] = p;
    }
  }
  std::vector<std::int32_t> col_next(out_col_ptr.begin(), out_col_ptr.end() - 1);
  std::vector<std::int32_t> out_row_idx(nnz);
  std::vector<double> out_values(nnz);
  if (positions != nullptr) positions->assign(nnz, 0);
  std::size_t e = 0;  // walks by_row, whose buckets are now in row order
  for (std::size_t i = 0; i < n; ++i) {
    for (; e < static_cast<std::size_t>(row_next[i]); ++e) {
      const std::int32_t p = by_row[e];
      const auto slot = static_cast<std::size_t>(
          col_next[static_cast<std::size_t>(new_col[static_cast<std::size_t>(p)])]++);
      out_row_idx[slot] = static_cast<std::int32_t>(i);
      out_values[slot] = values[p];
      if (positions != nullptr) {
        (*positions)[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(slot);
      }
    }
  }
  return SparseMatrix::from_csc(upper.rows(), upper.cols(), std::move(out_col_ptr),
                                std::move(out_row_idx), std::move(out_values));
}

Vector permute(std::span<const double> x, const Permutation& perm) {
  require(x.size() == perm.size(), "permute: size mismatch");
  Vector out(x.size());
  for (std::size_t i = 0; i < perm.size(); ++i) out[i] = x[static_cast<std::size_t>(perm[i])];
  return out;
}

Vector permute_inverse(std::span<const double> x, const Permutation& perm) {
  require(x.size() == perm.size(), "permute_inverse: size mismatch");
  Vector out(x.size());
  for (std::size_t i = 0; i < perm.size(); ++i) out[static_cast<std::size_t>(perm[i])] = x[i];
  return out;
}

}  // namespace gp::linalg
