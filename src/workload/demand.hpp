// Demand generation for the access networks.
//
// Each access network v has a base arrival rate proportional to its city
// population, modulated by a DiurnalProfile in the city's local time, with
// optional multiplicative noise and flash-crowd events. DemandModel exposes
// both the fluid mean rate D_k^v the controller optimizes over and an NHPP
// sample path (per-period Poisson counts) for the simulation engine.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "topology/geo.hpp"
#include "workload/diurnal.hpp"

namespace gp::workload {

/// A demand spike: the rate at one access network is multiplied by
/// `multiplier` during [start_hour, start_hour + duration_hours).
struct FlashCrowd {
  std::size_t access_network = 0;
  double start_hour = 0.0;
  double duration_hours = 1.0;
  double multiplier = 5.0;
};

/// Per-access-network demand configuration.
struct DemandSource {
  double base_rate = 100.0;   ///< requests/s at multiplier 1
  int utc_offset_hours = 0;   ///< for local-time evaluation of the profile
  DiurnalProfile profile;
};

/// One NHPP count draw: Poisson(expected_arrivals), switching to the
/// (deterministically seeded) normal approximation above 1e6 expected
/// arrivals so planetary-scale periods stay O(1) to sample. Shared by
/// DemandModel::sample_arrivals and the per-pair thinned streams of the
/// batched request simulator.
double sample_poisson_count(double expected_arrivals, Rng& rng);

/// Demand model over |V| access networks (see file comment).
class DemandModel {
 public:
  explicit DemandModel(std::vector<DemandSource> sources);

  /// Builds sources from cities: base rate = rate_per_capita * population,
  /// shared profile, city time zones.
  static DemandModel from_cities(const std::vector<topology::City>& cities,
                                 double rate_per_capita, const DiurnalProfile& profile);

  /// Builds a trace-replaying model: mean_rate(v, utc_hour) returns
  /// rates[k][v] for the period k of length `period_hours` (starting at
  /// `start_hour`) containing utc_hour — measured workloads drive the same
  /// engine/controller paths as the synthetic generator. `wrap` replays the
  /// trace cyclically past its end; otherwise the last row holds. Flash
  /// crowds and sample_rate noise still apply on top of the replayed mean.
  /// Every rate must be finite and >= 0.
  static DemandModel from_trace(std::vector<std::vector<double>> rates, double period_hours,
                                double start_hour = 0.0, bool wrap = true);

  std::size_t num_access_networks() const { return sources_.size(); }

  void add_flash_crowd(const FlashCrowd& event);

  /// Deterministic mean arrival rate (requests/s) of access network v at the
  /// given UTC hour (flash crowds included).
  double mean_rate(std::size_t v, double utc_hour) const;

  /// Mean rates for all access networks at one instant.
  std::vector<double> mean_rates(double utc_hour) const;

  /// NHPP arrival COUNT of access network v over one period
  /// [utc_hour, utc_hour + period_hours): Poisson(mean_rate * period_s),
  /// switching to the normal approximation above 1e6 expected arrivals —
  /// the count-level draw the batched request simulator
  /// (sim/request_path.hpp) and sample_rate() both build on. Returned as a
  /// double: the approximated regime is not integral (and does not need to
  /// be — at that scale the distinction is far below sampling noise).
  double sample_arrivals(std::size_t v, double utc_hour, double period_hours, Rng& rng) const;

  /// Noisy observation of the rate over one period: the empirical rate of an
  /// NHPP sampled over [utc_hour, utc_hour + period_hours), i.e.
  /// sample_arrivals / period. This is what the monitoring module
  /// "measures".
  double sample_rate(std::size_t v, double utc_hour, double period_hours, Rng& rng) const;

  /// Full demand trace: rates[k][v] for K periods of the given length,
  /// starting at utc_start_hour. `noisy` selects sampled vs mean rates.
  std::vector<std::vector<double>> trace(std::size_t periods, double period_hours,
                                         double utc_start_hour, bool noisy, Rng& rng) const;

  /// True when this model replays a trace instead of the diurnal generator.
  bool trace_backed() const { return !trace_rates_.empty(); }

 private:
  std::vector<DemandSource> sources_;
  std::vector<FlashCrowd> flash_crowds_;
  // Trace replay (from_trace): rates[k][v] per period; empty = synthetic.
  std::vector<std::vector<double>> trace_rates_;
  double trace_period_hours_ = 0.0;
  double trace_start_hour_ = 0.0;
  bool trace_wrap_ = true;
};

}  // namespace gp::workload
