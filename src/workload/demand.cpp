#include "workload/demand.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gp::workload {

DemandModel::DemandModel(std::vector<DemandSource> sources) : sources_(std::move(sources)) {
  require(!sources_.empty(), "DemandModel: need at least one source");
  for (const auto& source : sources_) {
    require(source.base_rate >= 0.0, "DemandModel: negative base rate");
  }
}

DemandModel DemandModel::from_cities(const std::vector<topology::City>& cities,
                                     double rate_per_capita, const DiurnalProfile& profile) {
  require(rate_per_capita >= 0.0, "from_cities: negative rate_per_capita");
  std::vector<DemandSource> sources;
  sources.reserve(cities.size());
  for (const auto& city : cities) {
    sources.push_back({city.population * rate_per_capita, city.utc_offset_hours, profile});
  }
  return DemandModel(std::move(sources));
}

DemandModel DemandModel::from_trace(std::vector<std::vector<double>> rates,
                                    double period_hours, double start_hour, bool wrap) {
  require(!rates.empty(), "from_trace: empty trace");
  require(period_hours > 0.0, "from_trace: non-positive period length");
  const std::size_t width = rates.front().size();
  require(width >= 1, "from_trace: trace has no columns");
  for (const auto& row : rates) {
    require(row.size() == width, "from_trace: ragged trace rows");
    for (double value : row) {
      require(std::isfinite(value) && value >= 0.0, "from_trace: rate must be finite and >= 0");
    }
  }
  // Placeholder sources carry the access-network count; the replayed rows
  // replace their base-rate/profile arithmetic entirely.
  DemandModel model(std::vector<DemandSource>(width, DemandSource{0.0, 0, {}}));
  model.trace_rates_ = std::move(rates);
  model.trace_period_hours_ = period_hours;
  model.trace_start_hour_ = start_hour;
  model.trace_wrap_ = wrap;
  return model;
}

void DemandModel::add_flash_crowd(const FlashCrowd& event) {
  require(event.access_network < sources_.size(), "add_flash_crowd: bad access network");
  require(event.duration_hours > 0.0, "add_flash_crowd: non-positive duration");
  require(event.multiplier >= 0.0, "add_flash_crowd: negative multiplier");
  flash_crowds_.push_back(event);
}

double DemandModel::mean_rate(std::size_t v, double utc_hour) const {
  require(v < sources_.size(), "mean_rate: access network out of range");
  double rate;
  if (trace_backed()) {
    const auto rows = static_cast<long long>(trace_rates_.size());
    auto row = static_cast<long long>(
        std::floor((utc_hour - trace_start_hour_) / trace_period_hours_));
    if (trace_wrap_) {
      row %= rows;
      if (row < 0) row += rows;
    } else {
      row = std::clamp(row, 0LL, rows - 1);
    }
    rate = trace_rates_[static_cast<std::size_t>(row)][v];
  } else {
    const auto& source = sources_[v];
    rate = source.base_rate *
           source.profile.multiplier(local_hour(utc_hour, source.utc_offset_hours));
  }
  for (const auto& crowd : flash_crowds_) {
    if (crowd.access_network != v) continue;
    if (utc_hour >= crowd.start_hour && utc_hour < crowd.start_hour + crowd.duration_hours) {
      rate *= crowd.multiplier;
    }
  }
  return rate;
}

std::vector<double> DemandModel::mean_rates(double utc_hour) const {
  std::vector<double> rates(sources_.size());
  for (std::size_t v = 0; v < sources_.size(); ++v) rates[v] = mean_rate(v, utc_hour);
  return rates;
}

double sample_poisson_count(double expected_arrivals, Rng& rng) {
  require(expected_arrivals >= 0.0, "sample_poisson_count: negative mean");
  // Very large means would overflow Poisson sampling time for no statistical
  // benefit; the normal approximation is exact enough above 1e6.
  if (expected_arrivals > 1e6) {
    return std::max(0.0, rng.normal(expected_arrivals, std::sqrt(expected_arrivals)));
  }
  return static_cast<double>(rng.poisson(expected_arrivals));
}

double DemandModel::sample_arrivals(std::size_t v, double utc_hour, double period_hours,
                                    Rng& rng) const {
  require(period_hours > 0.0, "sample_arrivals: non-positive period");
  // Integrate the rate over the period with a mid-point rule (the profile is
  // smooth at the sub-hour scale), then draw the NHPP count.
  const double mid_rate = mean_rate(v, utc_hour + period_hours / 2.0);
  return sample_poisson_count(mid_rate * period_hours * 3600.0, rng);
}

double DemandModel::sample_rate(std::size_t v, double utc_hour, double period_hours,
                                Rng& rng) const {
  return sample_arrivals(v, utc_hour, period_hours, rng) / (period_hours * 3600.0);
}

std::vector<std::vector<double>> DemandModel::trace(std::size_t periods, double period_hours,
                                                    double utc_start_hour, bool noisy,
                                                    Rng& rng) const {
  std::vector<std::vector<double>> rates(periods, std::vector<double>(sources_.size(), 0.0));
  for (std::size_t k = 0; k < periods; ++k) {
    const double hour = utc_start_hour + static_cast<double>(k) * period_hours;
    for (std::size_t v = 0; v < sources_.size(); ++v) {
      rates[k][v] = noisy ? sample_rate(v, hour, period_hours, rng)
                          : mean_rate(v, hour + period_hours / 2.0);
    }
  }
  return rates;
}

}  // namespace gp::workload
