#include "workload/price.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "workload/diurnal.hpp"

namespace gp::workload {

double vm_watts(VmType type) {
  switch (type) {
    case VmType::kSmall: return 30.0;
    case VmType::kMedium: return 70.0;
    case VmType::kLarge: return 140.0;
  }
  return 70.0;
}

namespace {

/// Shape parameters of one region's daily price curve.
struct RegionCurve {
  double base;       ///< overnight floor, $/MWh
  double amplitude;  ///< peak lift above the floor, $/MWh
  double peak_hour;  ///< local hour of the maximum
  double width;      ///< Gaussian-ish width of the peak, hours
};

RegionCurve curve_for(topology::Region region) {
  // Calibrated to the visual ranges of the paper's Fig. 3: California is
  // generally the most expensive with a pronounced late-afternoon (~17:00)
  // peak — "the difference reaches its maximum around 5pm" — but its
  // overnight trough comes close to the Texas floor, so the relative
  // ranking of regions genuinely changes across the day (the crossover that
  // drives the Fig. 5 reallocation). Texas is the cheapest overall.
  switch (region) {
    case topology::Region::kCalifornia: return {22.0, 88.0, 17.0, 4.0};
    case topology::Region::kTexas: return {15.0, 30.0, 15.0, 5.0};
    case topology::Region::kSoutheast: return {28.0, 40.0, 16.0, 5.0};
    case topology::Region::kMidwest: return {24.0, 54.0, 16.5, 4.5};
    case topology::Region::kEast: return {32.0, 48.0, 17.5, 4.5};
  }
  return {28.0, 40.0, 16.0, 5.0};
}

}  // namespace

double ElectricityPriceModel::price(topology::Region region, double local_hour_of_day) const {
  const RegionCurve curve = curve_for(region);
  double h = std::fmod(local_hour_of_day, 24.0);
  if (h < 0.0) h += 24.0;
  // Circular distance to the peak hour.
  double dh = std::abs(h - curve.peak_hour);
  dh = std::min(dh, 24.0 - dh);
  const double bump = std::exp(-(dh * dh) / (2.0 * curve.width * curve.width));
  // A small morning shoulder keeps the curve from being a pure Gaussian.
  double dm = std::abs(h - 8.0);
  dm = std::min(dm, 24.0 - dm);
  const double shoulder = 0.25 * std::exp(-(dm * dm) / (2.0 * 2.5 * 2.5));
  return curve.base + curve.amplitude * (bump + shoulder);
}

ServerPriceModel::ServerPriceModel(std::vector<topology::DataCenterSite> sites, VmType vm,
                                   ElectricityPriceModel electricity, double overhead_factor,
                                   double base_price_per_hour)
    : sites_(std::move(sites)),
      vm_(vm),
      electricity_(electricity),
      overhead_factor_(overhead_factor),
      base_price_per_hour_(base_price_per_hour) {
  require(!sites_.empty(), "ServerPriceModel: need at least one site");
  require(overhead_factor_ >= 1.0, "ServerPriceModel: overhead factor must be >= 1");
  require(base_price_per_hour_ >= 0.0, "ServerPriceModel: negative base price");
}

ServerPriceModel ServerPriceModel::from_trace(std::vector<topology::DataCenterSite> sites,
                                              VmType vm,
                                              std::vector<std::vector<double>> prices,
                                              double period_hours, double start_hour,
                                              bool wrap) {
  require(!prices.empty(), "from_trace: empty price trace");
  require(period_hours > 0.0, "from_trace: non-positive period length");
  for (const auto& row : prices) {
    require(row.size() == sites.size(), "from_trace: price columns != data centers");
    for (double value : row) {
      require(std::isfinite(value) && value >= 0.0, "from_trace: price must be finite and >= 0");
    }
  }
  ServerPriceModel model(std::move(sites), vm, ElectricityPriceModel());
  model.trace_prices_ = std::move(prices);
  model.trace_period_hours_ = period_hours;
  model.trace_start_hour_ = start_hour;
  model.trace_wrap_ = wrap;
  return model;
}

double ServerPriceModel::electricity_price(std::size_t l, double utc_hour) const {
  require(l < sites_.size(), "electricity_price: site out of range");
  const auto& site = sites_[l];
  return electricity_.price(site.location.region,
                            local_hour(utc_hour, site.location.utc_offset_hours));
}

double ServerPriceModel::server_price(std::size_t l, double utc_hour) const {
  if (trace_backed()) {
    require(l < sites_.size(), "server_price: site out of range");
    const auto rows = static_cast<long long>(trace_prices_.size());
    auto row = static_cast<long long>(
        std::floor((utc_hour - trace_start_hour_) / trace_period_hours_));
    if (trace_wrap_) {
      row %= rows;
      if (row < 0) row += rows;
    } else {
      row = std::clamp(row, 0LL, rows - 1);
    }
    return trace_prices_[static_cast<std::size_t>(row)][l];
  }
  // watts -> MWh per hour = W / 1e6; $/server-hour = $/MWh * MW.
  const double megawatts = vm_watts(vm_) * overhead_factor_ / 1e6;
  return base_price_per_hour_ + electricity_price(l, utc_hour) * megawatts;
}

std::vector<double> ServerPriceModel::server_prices(double utc_hour) const {
  std::vector<double> prices(sites_.size());
  for (std::size_t l = 0; l < sites_.size(); ++l) prices[l] = server_price(l, utc_hour);
  return prices;
}

std::vector<std::vector<double>> ServerPriceModel::trace(std::size_t periods, double period_hours,
                                                         double utc_start_hour) const {
  require(period_hours > 0.0, "trace: non-positive period");
  std::vector<std::vector<double>> prices(periods, std::vector<double>(sites_.size(), 0.0));
  for (std::size_t k = 0; k < periods; ++k) {
    const double hour = utc_start_hour + (static_cast<double>(k) + 0.5) * period_hours;
    for (std::size_t l = 0; l < sites_.size(); ++l) prices[k][l] = server_price(l, hour);
  }
  return prices;
}

}  // namespace gp::workload
