// Fill-reducing orderings and symmetric permutation for sparse LDL^T.
//
// The fill-reducing ordering is the exact greedy minimum degree on explicit
// elimination graphs (no quotient graph, no approximate degrees): each step
// eliminates the live vertex of smallest exact degree, ties to the lowest
// index, and joins its neighbours into a clique. A lazily-invalidated binary
// heap picks the vertex instead of a scan over all n: selection costs
// O((n + F) log n) per ordering, where F <= nnz(L) counts degree updates (one
// per clique member per step). On top come the clique merges, which cost each
// clique member the length of its live list plus the clique's. This matters:
// the ADMM polish re-orders whenever its active set changes, which in the
// multi-tenant game is about every second best response. An identity
// ordering is available for tests and ablations.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/sparse_matrix.hpp"

namespace gp::linalg {

/// Permutation vector semantics: perm[new_index] = old_index.
using Permutation = std::vector<std::int32_t>;

/// Identity permutation of size n.
Permutation identity_permutation(std::int32_t n);

/// Inverse permutation: inv[perm[i]] = i.
Permutation invert_permutation(const Permutation& perm);

/// Exact greedy minimum-degree ordering of the symmetric sparsity pattern of
/// A (the pattern of A + A^T is used; values are ignored), ties broken to the
/// lowest vertex index. A must be square.
Permutation minimum_degree_ordering(const SparseMatrix& a);

/// Symmetric permutation of a square symmetric matrix given by its UPPER
/// triangle: returns the upper triangle of P A P^T where row/col old index
/// perm[i] maps to new index i. Built by two counting passes, O(nnz + n).
/// When `positions` is given it receives, for each stored entry p of
/// `upper`, the index of that entry in the result's values(), so a caller
/// can refresh the permuted values of an unchanged pattern by scattering.
SparseMatrix symmetric_permute_upper(const SparseMatrix& upper, const Permutation& perm,
                                     std::vector<std::int32_t>* positions = nullptr);

/// Applies a permutation to a vector: out[i] = x[perm[i]].
Vector permute(std::span<const double> x, const Permutation& perm);

/// Applies the inverse permutation: out[perm[i]] = x[i].
Vector permute_inverse(std::span<const double> x, const Permutation& perm);

}  // namespace gp::linalg
