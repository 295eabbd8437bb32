#include "topology/network.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gp::topology {

NetworkModel::NetworkModel(std::vector<std::string> dc_names, std::vector<std::string> an_names,
                           std::vector<std::vector<double>> latency_ms)
    : dc_names_(std::move(dc_names)),
      an_names_(std::move(an_names)),
      latency_ms_(std::move(latency_ms)) {
  require(latency_ms_.size() == dc_names_.size(), "NetworkModel: row count != dc count");
  for (const auto& row : latency_ms_) {
    require(row.size() == an_names_.size(), "NetworkModel: row size != access network count");
    for (double d : row) require(d >= 0.0, "NetworkModel: negative latency");
  }
}

NetworkModel NetworkModel::from_transit_stub(const TransitStubTopology& topo,
                                             std::size_t num_datacenters,
                                             std::size_t num_access_networks, Rng& rng) {
  require(num_datacenters >= 1, "from_transit_stub: need at least one data center");
  require(num_access_networks >= 1, "from_transit_stub: need at least one access network");
  require(num_datacenters <= topo.transit_nodes.size(),
          "from_transit_stub: more data centers than transit routers");
  require(num_access_networks <= topo.stub_domains.size(),
          "from_transit_stub: more access networks than stub domains");

  // Choose distinct transit routers for the data centers.
  std::vector<NodeId> transit_pool = topo.transit_nodes;
  rng.shuffle(transit_pool);
  std::vector<NodeId> dc_nodes(transit_pool.begin(),
                               transit_pool.begin() + static_cast<std::ptrdiff_t>(num_datacenters));

  // Choose distinct stub domains for the access networks; the access network
  // sits at a random node of its domain.
  std::vector<std::size_t> domain_order(topo.stub_domains.size());
  for (std::size_t i = 0; i < domain_order.size(); ++i) domain_order[i] = i;
  rng.shuffle(domain_order);
  std::vector<NodeId> an_nodes;
  for (std::size_t i = 0; i < num_access_networks; ++i) {
    const auto& domain = topo.stub_domains[domain_order[i]];
    an_nodes.push_back(domain[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(domain.size()) - 1))]);
  }

  // Each data center adds a 5 ms access hop from its transit router.
  constexpr double kDcAccessLatencyMs = 5.0;
  std::vector<std::vector<double>> latency(num_datacenters,
                                           std::vector<double>(num_access_networks, 0.0));
  std::vector<std::string> dc_names, an_names;
  for (std::size_t l = 0; l < num_datacenters; ++l) {
    const auto dist = topo.graph.dijkstra(dc_nodes[l]);
    for (std::size_t v = 0; v < num_access_networks; ++v) {
      const double d = dist[static_cast<std::size_t>(an_nodes[v])];
      ensure(d != Graph::kUnreachable, "from_transit_stub: disconnected topology");
      latency[l][v] = d + kDcAccessLatencyMs;
    }
    dc_names.push_back("dc-" + std::to_string(l));
  }
  for (std::size_t v = 0; v < num_access_networks; ++v) {
    an_names.push_back("an-" + std::to_string(v));
  }
  return NetworkModel(std::move(dc_names), std::move(an_names), std::move(latency));
}

NetworkModel NetworkModel::from_geography(const std::vector<DataCenterSite>& sites,
                                          const std::vector<City>& cities) {
  require(!sites.empty() && !cities.empty(), "from_geography: empty sites or cities");
  std::vector<std::string> dc_names, an_names;
  std::vector<std::vector<double>> latency;
  for (const auto& site : sites) {
    dc_names.push_back(site.name);
    std::vector<double> row;
    row.reserve(cities.size());
    for (const auto& city : cities) row.push_back(propagation_latency_ms(site.location, city));
    latency.push_back(std::move(row));
  }
  for (const auto& city : cities) an_names.push_back(city.name);
  return NetworkModel(std::move(dc_names), std::move(an_names), std::move(latency));
}

double NetworkModel::latency_ms(std::size_t l, std::size_t v) const {
  require(l < dc_names_.size(), "latency_ms: data center index out of range");
  require(v < an_names_.size(), "latency_ms: access network index out of range");
  return latency_ms_[l][v];
}

}  // namespace gp::topology
