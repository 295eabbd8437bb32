// Core model types of the Dynamic Service Placement Problem (Section IV).
//
// A DsppModel fixes the environment one service provider optimizes over:
// the bipartite network (latency matrix d_lv), the SLA specification that
// produces the a_lv coefficients of constraint (11), per-data-center
// reconfiguration weights c^l, data-center capacities C^l, and the server
// "size" s used in shared-capacity (multi-provider) settings.
//
// Units convention across the library:
//   - arrival rates and service rates in requests/second,
//   - latencies in milliseconds at the API surface (converted internally),
//   - allocations x in servers (continuous, per the paper's relaxation),
//   - prices in $ per server per control period,
//   - reconfiguration weight c^l in $ per (server change)^2 per period.
#pragma once

#include "queueing/mm1.hpp"
#include "topology/network.hpp"

namespace gp::dspp {

/// SLA specification shared by all (l, v) pairs of one provider.
struct SlaSpec {
  double mu = 100.0;                ///< per-server service rate, req/s
  double max_latency_ms = 100.0;    ///< dbar, end-to-end bound
  double reservation_ratio = 1.0;   ///< r >= 1 capacity cushion (Section IV-B)
  double percentile = 0.0;          ///< phi; 0 bounds the mean delay
};

/// Environment for a single provider's DSPP.
struct DsppModel {
  topology::NetworkModel network;
  SlaSpec sla;
  std::vector<double> reconfig_cost;  ///< c^l, size L
  std::vector<double> capacity;       ///< C^l, size L (servers)
  double server_size = 1.0;           ///< s, capacity units per server

  /// Optional per-(l, v) latency bounds dbar_lv in ms, overriding
  /// sla.max_latency_ms pair-wise (the paper's formulation is per-pair;
  /// e.g. premium customers get tighter bounds). Shape [L][V] when set;
  /// non-positive entries fall back to the global bound.
  std::vector<std::vector<double>> max_latency_override_ms;

  /// Candidate pruning for large fleets: when in (0, L), every access
  /// network keeps only its `candidates_per_an` nearest feasible data
  /// centers (by d_lv, ties toward the smaller l), making PairIndex — and
  /// everything built on it: assign_demand, evaluate_sla, the window QP —
  /// sparse. 0 (or >= L) keeps the dense all-feasible-pairs behavior.
  std::size_t candidates_per_an = 0;

  std::size_t num_datacenters() const { return network.num_datacenters(); }
  std::size_t num_access_networks() const { return network.num_access_networks(); }

  /// Throws PreconditionError on inconsistent shapes or values.
  void validate() const;

  /// The latency bound that applies to pair (l, v): the per-pair override
  /// when present and positive, else the global sla.max_latency_ms.
  double max_latency_ms_for(std::size_t l, std::size_t v) const;

  /// The a_lv coefficient of eq. (10)/(11) for the pair, +infinity when the
  /// pair cannot meet the SLA (the pair is then excluded from optimization).
  double sla_coefficient(std::size_t l, std::size_t v) const;
};

/// Index of the usable (l, v) pairs — those with finite a_lv, optionally
/// pruned to each access network's k nearest feasible data centers. The
/// DSPP decision vectors x and u range over these pairs only.
class PairIndex {
 public:
  /// Builds from a model; throws when some access network has NO usable
  /// data center (its demand could never be served). When
  /// model.candidates_per_an is in (0, L) each network keeps its k nearest
  /// feasible data centers by (d_lv, l). Pairs are enumerated l-major
  /// (ascending v within a data center) either way, so with k >= L the
  /// result is the dense index.
  explicit PairIndex(const DsppModel& model);

  std::size_t num_pairs() const { return pairs_.size(); }
  std::size_t num_datacenters() const { return num_l_; }
  std::size_t num_access_networks() const { return num_v_; }

  std::size_t datacenter_of(std::size_t pair) const { return pairs_[pair].first; }
  std::size_t access_network_of(std::size_t pair) const { return pairs_[pair].second; }

  /// a_lv for the pair (finite by construction).
  double coefficient(std::size_t pair) const { return a_[pair]; }

  /// Pairs serving access network v.
  const std::vector<std::size_t>& pairs_of_access_network(std::size_t v) const;

  /// Pairs hosted in data center l.
  const std::vector<std::size_t>& pairs_of_datacenter(std::size_t l) const;

 private:
  std::size_t num_l_ = 0;
  std::size_t num_v_ = 0;
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;  // (l, v)
  std::vector<double> a_;
  std::vector<std::vector<std::size_t>> by_access_network_;
  std::vector<std::vector<std::size_t>> by_datacenter_;
};

}  // namespace gp::dspp
