// Pair-id lookup for tests. PairIndex itself answers only "which pairs serve
// network v" and "which pairs sit in data center l".
#pragma once

#include <cstddef>
#include <optional>

#include "dspp/model.hpp"

namespace gp::test_util {

/// The id of pair (l, v), or nullopt when the index does not hold it.
inline std::optional<std::size_t> find_pair(const dspp::PairIndex& pairs, std::size_t l,
                                            std::size_t v) {
  for (const std::size_t id : pairs.pairs_of_access_network(v)) {
    if (pairs.datacenter_of(id) == l) return id;
  }
  return std::nullopt;
}

}  // namespace gp::test_util
