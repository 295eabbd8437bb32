// Measurement helpers of the control-period benchmark, kept free of any
// workload so the benchmark's own tests exercise them directly:
//
//  - tail_percentile: the timing percentile rule (median plus the highest
//    percentile up to p90 that keeps at least ten samples beyond it);
//  - PeriodStamps / ledger_row: the per-period ledger built from clock reads
//    taken around public library calls (policy, observer, predictors), whose
//    parts must add back up to the period's wall time;
//  - TimedPredictor: a forwarding control::SeriesPredictor decorator that
//    times the predictor calls and reports each observe() to a hook.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "control/predictor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Samples required beyond a reported tail percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples; throws
/// on an empty set.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

inline double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

/// A tail percentile together with the level actually used.
struct Tail {
  double level = 0.0;        ///< percentile level, <= the requested one
  double value = 0.0;
  std::size_t beyond = 0;    ///< samples above the level's rank
};

/// The requested tail level (90 for every "_p90" metric), lowered to the
/// highest whole level that still leaves kMinBeyond samples beyond it.
/// Throws when even the median would leave fewer: such a run is too short
/// to report a tail at all.
inline Tail tail_percentile(const std::vector<double>& samples, double requested = 90.0) {
  const auto n = static_cast<double>(samples.size());
  const auto beyond_at = [n](double level) {
    return static_cast<std::size_t>(std::floor(n * (1.0 - level / 100.0) + 1e-9));
  };
  double level = std::floor(requested);
  while (level >= 50.0 && beyond_at(level) < kMinBeyond) level -= 1.0;
  if (level < 50.0) {
    throw std::invalid_argument("tail percentile needs at least " +
                                std::to_string(2 * kMinBeyond) + " samples");
  }
  return Tail{level, percentile(samples, level), beyond_at(level)};
}

/// Clock reads of one control period, taken from outside the library. The
/// period starts at `begin` (the policy call, or tenant 0's observe() in the
/// multi-tenant loop) and ends where the next period begins.
struct PeriodStamps {
  Clock::time_point begin;           ///< policy call entry
  Clock::time_point policy_end;      ///< policy call return
  Clock::time_point observer_begin;  ///< observer entry (== policy_end without one)
  Clock::time_point observer_end;    ///< observer return
  double predict_ms = 0.0;           ///< inside the predictor decorators
};

/// One period of the ledger. predict + decide + route_sla + observer + other
/// equals period_ms up to rounding; `residual_ms` is that difference.
struct LedgerRow {
  double period_ms = 0.0;
  double predict_ms = 0.0;    ///< forecasting, inside the policy call
  double decide_ms = 0.0;     ///< rest of the policy call (window update + QP)
  double route_sla_ms = 0.0;  ///< engine: cost, eq-13 routing, analytic SLA
  double observer_ms = 0.0;   ///< period observer (request replay)
  double other_ms = 0.0;      ///< engine bookkeeping until the next period
  double residual_ms = 0.0;
  double policy_ms() const { return predict_ms + decide_ms; }
};

/// Splits one period at its stamps; `next_begin` is the next period's
/// `begin` (or the run's return for the last period). Each part comes from
/// its own pair of clock reads, so the residual checks the arithmetic.
inline LedgerRow ledger_row(const PeriodStamps& stamps, Clock::time_point next_begin) {
  LedgerRow row;
  row.period_ms = ms_between(stamps.begin, next_begin);
  row.predict_ms = stamps.predict_ms;
  row.decide_ms = ms_between(stamps.begin, stamps.policy_end) - stamps.predict_ms;
  row.route_sla_ms = ms_between(stamps.policy_end, stamps.observer_begin);
  row.observer_ms = ms_between(stamps.observer_begin, stamps.observer_end);
  row.other_ms = ms_between(stamps.observer_end, next_begin);
  row.residual_ms = row.period_ms - (row.predict_ms + row.decide_ms + row.route_sla_ms +
                                     row.observer_ms + row.other_ms);
  return row;
}

/// Ledger rows for consecutive periods, the last one closed by `run_end`.
inline std::vector<LedgerRow> ledger(const std::vector<PeriodStamps>& periods,
                                     Clock::time_point run_end) {
  std::vector<LedgerRow> rows;
  rows.reserve(periods.size());
  for (std::size_t k = 0; k < periods.size(); ++k) {
    rows.push_back(ledger_row(periods[k], k + 1 < periods.size() ? periods[k + 1].begin : run_end));
  }
  return rows;
}

/// Largest |residual| over the rows; the conservation check bounds it.
inline double max_residual_ms(const std::vector<LedgerRow>& rows) {
  double worst = 0.0;
  for (const auto& row : rows) worst = std::max(worst, std::abs(row.residual_ms));
  return worst;
}

/// Bit-level equality of two double sequences (NaN == NaN when the payloads
/// match): the determinism checks compare results, not tolerances.
inline bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Accumulated predictor time, shared by the decorators of one controller.
struct PredictClock {
  double ms = 0.0;
};

/// Forwarding SeriesPredictor decorator (see file comment). The wrapped
/// predictor sees exactly the calls it would see unwrapped, so results are
/// unchanged; `on_observe` (optional) receives the clock read taken on entry
/// to every observe().
class TimedPredictor final : public gp::control::SeriesPredictor {
 public:
  TimedPredictor(std::unique_ptr<gp::control::SeriesPredictor> inner, PredictClock& clock,
                 std::function<void(Clock::time_point)> on_observe = {})
      : inner_(std::move(inner)), clock_(&clock), on_observe_(std::move(on_observe)) {}

  void observe(const gp::linalg::Vector& value) override {
    const auto start = Clock::now();
    if (on_observe_) on_observe_(start);
    inner_->observe(value);
    clock_->ms += ms_between(start, Clock::now());
  }

  std::vector<gp::linalg::Vector> forecast(std::size_t horizon) override {
    const auto start = Clock::now();
    auto result = inner_->forecast(horizon);
    clock_->ms += ms_between(start, Clock::now());
    return result;
  }

  std::unique_ptr<gp::control::SeriesPredictor> clone() const override {
    return std::make_unique<TimedPredictor>(inner_->clone(), *clock_, on_observe_);
  }

 private:
  std::unique_ptr<gp::control::SeriesPredictor> inner_;
  PredictClock* clock_;
  std::function<void(Clock::time_point)> on_observe_;
};

}  // namespace perfbench
