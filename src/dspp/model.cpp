#include "dspp/model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace gp::dspp {

namespace {

/// Below this many (l, v) pairs PairIndex scans on the calling thread: a
/// pool dispatch costs more than the whole scan (paper_full is 4 x 24).
constexpr std::size_t kMinPairsForLanes = 1024;

}  // namespace

void DsppModel::validate() const {
  const std::size_t num_l = network.num_datacenters();
  require(num_l >= 1, "DsppModel: need at least one data center");
  require(network.num_access_networks() >= 1, "DsppModel: need at least one access network");
  require(reconfig_cost.size() == num_l, "DsppModel: reconfig_cost size != L");
  require(capacity.size() == num_l, "DsppModel: capacity size != L");
  for (double c : reconfig_cost) require(c >= 0.0, "DsppModel: negative reconfiguration cost");
  for (double cap : capacity) require(cap > 0.0, "DsppModel: capacity must be > 0");
  require(server_size > 0.0, "DsppModel: server size must be > 0");
  require(sla.mu > 0.0, "DsppModel: mu must be > 0");
  require(sla.max_latency_ms > 0.0, "DsppModel: max latency must be > 0");
  require(sla.reservation_ratio >= 1.0, "DsppModel: reservation ratio must be >= 1");
  require(sla.percentile >= 0.0 && sla.percentile < 1.0, "DsppModel: percentile in [0, 1)");
  if (!max_latency_override_ms.empty()) {
    require(max_latency_override_ms.size() == num_l,
            "DsppModel: latency override row count != L");
    for (const auto& row : max_latency_override_ms) {
      require(row.size() == network.num_access_networks(),
              "DsppModel: latency override row size != V");
    }
  }
}

double DsppModel::max_latency_ms_for(std::size_t l, std::size_t v) const {
  if (l < max_latency_override_ms.size() && v < max_latency_override_ms[l].size() &&
      max_latency_override_ms[l][v] > 0.0) {
    return max_latency_override_ms[l][v];
  }
  return sla.max_latency_ms;
}

double DsppModel::sla_coefficient(std::size_t l, std::size_t v) const {
  queueing::SlaParams params;
  params.mu = sla.mu;
  params.network_latency = network.latency_ms(l, v) / 1000.0;
  params.max_latency = max_latency_ms_for(l, v) / 1000.0;
  params.reservation_ratio = sla.reservation_ratio;
  params.percentile = sla.percentile;
  return queueing::sla_coefficient(params);
}

PairIndex::PairIndex(const DsppModel& model) {
  model.validate();
  num_l_ = model.num_datacenters();
  num_v_ = model.num_access_networks();
  const std::size_t k = model.candidates_per_an;
  const std::size_t keep = k > 0 && k < num_l_ ? k : num_l_;

  // Per-network selection into per-v slots, so the result is bit-identical
  // at any lane count: the `keep` feasible DCs nearest by (d_lv, l), held
  // as a max-heap whose front is the farthest kept DC. A DC no nearer than
  // that front cannot enter, so its a_lv is never evaluated; every other
  // a_lv is evaluated once. The scratch rows die with this constructor.
  struct Kept {
    double latency;
    double a;
    std::uint32_t l;
  };
  const auto nearer = [](const Kept& x, const Kept& y) {
    return x.latency < y.latency || (x.latency == y.latency && x.l < y.l);
  };
  std::vector<std::vector<Kept>> kept(num_v_);
  parallel_for(std::size_t{0}, num_v_, [&](std::size_t v) {
    std::vector<Kept>& row = kept[v];
    row.reserve(keep);
    for (std::size_t l = 0; l < num_l_; ++l) {
      Kept dc{model.network.latency_ms(l, v), 0.0, static_cast<std::uint32_t>(l)};
      if (row.size() == keep && !nearer(dc, row.front())) continue;
      dc.a = model.sla_coefficient(l, v);
      if (!std::isfinite(dc.a)) continue;
      if (row.size() == keep) {
        std::pop_heap(row.begin(), row.end(), nearer);
        row.pop_back();
      }
      row.push_back(dc);
      std::push_heap(row.begin(), row.end(), nearer);
    }
    std::sort(row.begin(), row.end(), [](const Kept& x, const Kept& y) { return x.l < y.l; });
  }, num_l_ * num_v_ < kMinPairsForLanes ? 1 : 0);
  for (std::size_t v = 0; v < num_v_; ++v) {
    require(!kept[v].empty(), "PairIndex: access network " + std::to_string(v) +
                                  " has no data center able to meet the SLA");
  }

  // l-major ids: DC l's pairs start after every pair of DCs 0..l-1, and
  // walking networks in order fills each DC's block by ascending v.
  std::vector<std::size_t> next_id(num_l_, 0);
  for (const auto& row : kept) {
    for (const Kept& dc : row) ++next_id[dc.l];
  }
  std::size_t num_pairs = 0;
  for (std::size_t& id : next_id) num_pairs += std::exchange(id, num_pairs);
  pairs_.resize(num_pairs);
  a_.resize(num_pairs);
  by_access_network_.assign(num_v_, {});
  by_datacenter_.assign(num_l_, {});
  for (std::size_t v = 0; v < num_v_; ++v) {
    for (const Kept& dc : kept[v]) {
      const std::size_t id = next_id[dc.l]++;
      pairs_[id] = {dc.l, v};
      a_[id] = dc.a;
      by_access_network_[v].push_back(id);
      by_datacenter_[dc.l].push_back(id);
    }
  }
}

const std::vector<std::size_t>& PairIndex::pairs_of_access_network(std::size_t v) const {
  require(v < num_v_, "pairs_of_access_network: out of range");
  return by_access_network_[v];
}

const std::vector<std::size_t>& PairIndex::pairs_of_datacenter(std::size_t l) const {
  require(l < num_l_, "pairs_of_datacenter: out of range");
  return by_datacenter_[l];
}

}  // namespace gp::dspp
