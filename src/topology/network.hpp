// The bipartite network model the DSPP formulation consumes: data centers L,
// customer locations V, and the latency matrix d_lv between them (Section IV
// of the paper models the network exclusively through d_lv).
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "topology/geo.hpp"
#include "topology/transit_stub.hpp"

namespace gp::topology {

/// Bipartite latency model between |L| data centers and |V| access networks.
class NetworkModel {
 public:
  NetworkModel() = default;

  /// Builds from an explicit latency matrix (latency_ms[l][v], one row per
  /// data center). Rows must be equally sized.
  NetworkModel(std::vector<std::string> dc_names, std::vector<std::string> an_names,
               std::vector<std::vector<double>> latency_ms);

  /// Builds by embedding data centers and access networks into a generated
  /// transit-stub topology: each data center is attached to a distinct
  /// transit router (5 ms access link), each access network to a distinct
  /// stub domain; d_lv is the shortest-path latency between attachments.
  static NetworkModel from_transit_stub(const TransitStubTopology& topo,
                                        std::size_t num_datacenters,
                                        std::size_t num_access_networks, Rng& rng);

  /// Builds from geographic positions: d_lv is the great-circle propagation
  /// estimate between each site and city.
  static NetworkModel from_geography(const std::vector<DataCenterSite>& sites,
                                     const std::vector<City>& cities);

  std::size_t num_datacenters() const { return dc_names_.size(); }
  std::size_t num_access_networks() const { return an_names_.size(); }

  /// One-way latency in ms between data center l and access network v.
  double latency_ms(std::size_t l, std::size_t v) const;

  const std::string& dc_name(std::size_t l) const { return dc_names_[l]; }
  const std::string& an_name(std::size_t v) const { return an_names_[v]; }

 private:
  std::vector<std::string> dc_names_;
  std::vector<std::string> an_names_;
  std::vector<std::vector<double>> latency_ms_;  // [l][v]
};

}  // namespace gp::topology
