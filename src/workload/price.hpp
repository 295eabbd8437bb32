// Regional electricity price model and the per-server price derived from it.
//
// The paper's Fig. 3 shows wholesale electricity prices for four regions
// over a day (roughly $10-$110/MWh, with California peaking in the late
// afternoon and Texas cheapest). Real RTO feeds are not shipped, so
// ElectricityPriceModel synthesizes per-region daily curves calibrated to
// that figure (documented substitution; see DESIGN.md). ServerPriceModel
// converts $/MWh into the per-server-per-period price p_k^l the DSPP
// objective consumes, using the paper's VM power draws (30/70/140 W).
#pragma once

#include <vector>

#include "topology/geo.hpp"

namespace gp::workload {

/// VM flavors from the paper's experiment setup (Section VII).
enum class VmType { kSmall, kMedium, kLarge };

/// Electrical power draw of a VM flavor in watts (30/70/140 per the paper).
double vm_watts(VmType type);

/// Synthetic per-region daily electricity price curves, $/MWh.
class ElectricityPriceModel {
 public:
  /// Deterministic price for the region at the given LOCAL hour-of-day.
  double price(topology::Region region, double local_hour) const;
};

/// Converts electricity prices into per-server prices for each data center.
class ServerPriceModel {
 public:
  /// sites: data centers (region + time zone used); vm: flavor determining
  /// power draw; overhead_factor: PUE-style multiplier on IT power;
  /// base_price_per_hour: non-energy cost floor per server-hour.
  ServerPriceModel(std::vector<topology::DataCenterSite> sites, VmType vm,
                   ElectricityPriceModel electricity, double overhead_factor = 1.3,
                   double base_price_per_hour = 0.0);

  /// Builds a trace-replaying model: server_price(l, utc_hour) returns
  /// prices[k][l] ($/server-hour) for the period k of length `period_hours`
  /// (starting at `start_hour`) containing utc_hour; `wrap` replays
  /// cyclically past the end, else the last row holds. electricity_price()
  /// still reports the synthetic regional curves. Every price must be
  /// finite and >= 0.
  static ServerPriceModel from_trace(std::vector<topology::DataCenterSite> sites, VmType vm,
                                     std::vector<std::vector<double>> prices,
                                     double period_hours, double start_hour = 0.0,
                                     bool wrap = true);

  std::size_t num_datacenters() const { return sites_.size(); }

  /// True when this model replays a trace instead of the electricity curves.
  bool trace_backed() const { return !trace_prices_.empty(); }

  /// Price of running one server in data center l for one hour, at the given
  /// UTC hour ($/server-hour).
  double server_price(std::size_t l, double utc_hour) const;

  /// Price vector across data centers at one instant.
  std::vector<double> server_prices(double utc_hour) const;

  /// Full price trace: prices[k][l] for K periods.
  std::vector<std::vector<double>> trace(std::size_t periods, double period_hours,
                                         double utc_start_hour) const;

  /// Underlying electricity price ($/MWh) for data center l at a UTC hour.
  double electricity_price(std::size_t l, double utc_hour) const;

 private:
  std::vector<topology::DataCenterSite> sites_;
  VmType vm_;
  ElectricityPriceModel electricity_;
  double overhead_factor_;
  double base_price_per_hour_;
  // Trace replay (from_trace): prices[k][l] per period; empty = synthetic.
  std::vector<std::vector<double>> trace_prices_;
  double trace_period_hours_ = 0.0;
  double trace_start_hour_ = 0.0;
  bool trace_wrap_ = true;
};

}  // namespace gp::workload
