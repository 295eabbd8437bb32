// Batched request-level simulation: the million-user request path.
//
// The legacy simulators in sim/request_sim.hpp interleave one RNG draw per
// event with the queue recursion — correct, but the hot loop round-trips
// through the generator for every request and buffers every response for a
// retroactive percentile sort (O(requests) memory). This module restructures
// the same exact recursions into a batched, sharded core:
//
//  1. Count-first NHPP batches. Per (datacenter, access-network) pair the
//     arrival COUNT over the period is drawn once
//     (workload::sample_poisson_count — the same draw the demand model's
//     NHPP sampling uses), then the inter-arrival offsets are filled into
//     SoA buffers in tight loops: conditioned on N arrivals in [0, T], the
//     gaps are N+1 iid Exp(1) spacings normalized to T (the order-statistics
//     identity — no sort needed). Above the batch cap the count draw is
//     already in its normal-approximation regime and the gaps fall back to
//     iid Exp(lambda) chunks, whose conditional correction is far below
//     sampling noise at that scale.
//  2. Vectorised draws. A buffer of exponentials is filled in two passes:
//     Rng::fill_uniform_open writes the uniforms Rng::exponential would
//     consume (same order, same u <= 0 redraw, so the stream and every
//     request count are those of a per-draw loop), then the tiered
//     linalg::neg_log_div kernel turns them into -log(u) / rate in place.
//  3. Sharded lanes, bit-identical at any lane count. Each (l, v) pair owns
//     an RNG substream derived from the run seed by pair index
//     (substream_seed — the splitmix64 finalizer scenario::derive_run_seed
//     uses for sweep cells), pairs are dealt to lanes by the LPT rule
//     (heaviest routed rate first, each to the least-loaded lane: city
//     demand is heavy-tailed, so dealing by index would leave one lane with
//     the largest cities), and every statistic lands in a slot indexed by
//     pair. The output is therefore bit-identical at any GEOPLACE_THREADS /
//     RequestSimOptions::max_lanes and on every SIMD tier — the SweepRunner
//     determinism contract.
//  4. Streaming statistics. Latencies stream into a per-pair LatencySketch
//     over the log-bucket geometry of obs::LogBucketLayout (the registry
//     histogram's layout, single-writer and lock-free here; its bucket
//     lookup is an edge-table probe, no log10), so memory is
//     O(pairs x buckets), never O(requests); warm-up is an exact skip of
//     the first floor(warmup_fraction * N) requests of each batch because
//     the count is known up front.
//
// Drift bound against exact draws. neg_log_div's log is within 1 ulp of
// std::log, so each draw may differ from Rng::exponential's by a rounding
// or two. Per pair, against a replay drawing through Rng::exponential:
// `requests` is EXACTLY equal (counts come from the untouched Poisson
// draws), `mean_ms` and `utilization` agree to 1e-12 relative, `violations`
// differ by at most 1 in 1e5 requests, and `p95_ms` stays within one bucket
// ratio. tests/test_request_path.cpp enforces these bounds.
//
// The exact kernels (Lindley recursion for the split M/M/1 group, a
// server-heap for pooled M/M/c) live here as templates over a sink so the
// legacy entry points can wrap them with their original draw order and stay
// bit-identical to their pre-batched outputs; see request_sim.cpp.
//
// simulate_day() closes the loop with the discrete-time engine: it hangs a
// request-level simulation off the engine's PeriodObserver hook, firing an
// NHPP request stream at every period's deployment and emitting the
// empirical SLA view (req_* columns) into the telemetry timeline next to the
// analytic M/M/1 evaluation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "dspp/assignment.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace gp::sim {

/// splitmix64 finalizer over (base, index): the substream derivation shared
/// with scenario::derive_run_seed. Derived seeds are independent of lane
/// assignment and iteration order, which is what makes the sharded
/// simulation bit-identical at any thread count.
inline std::uint64_t substream_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Exact Lindley recursion W_{n+1} = max(0, W_n + S_n - A_{n+1}) over
/// pre-drawn batches: services[i] is request i's service time, gaps_after[i]
/// the inter-arrival gap between request i and i+1. The sink is called once
/// per request, in order, as sink(response_s, service_s) — callers
/// accumulate busy time and record latencies there, so the floating-point
/// accumulation order is exactly the legacy interleaved loop's. Returns the
/// wait carried past the batch (chunked streams thread it through).
template <typename Sink>
inline double lindley_kernel(std::span<const double> services,
                             std::span<const double> gaps_after, double wait, Sink&& sink) {
  for (std::size_t i = 0; i < services.size(); ++i) {
    const double service = services[i];
    sink(wait + service, service);
    wait = std::max(0.0, wait + service - gaps_after[i]);
  }
  return wait;
}

/// Exact FIFO M/M/c recursion over pre-drawn batches: a min-heap of
/// server-free times, arrivals replayed from `first_arrival` plus the gap
/// AFTER each request (the same accumulation order as the legacy interleaved
/// loop, so wrapped outputs stay bit-identical). `free_at` must hold the c
/// server-free times (all 0 for an idle start) and carries state across
/// chunks.
template <typename Sink>
inline void mmc_heap_kernel(double first_arrival, std::span<const double> services,
                            std::span<const double> gaps_after,
                            std::vector<double>& free_at, Sink&& sink) {
  auto greater = std::greater<>();
  double t = first_arrival;
  for (std::size_t i = 0; i < services.size(); ++i) {
    std::pop_heap(free_at.begin(), free_at.end(), greater);
    const double earliest = free_at.back();
    const double start = std::max(t, earliest);
    const double service = services[i];
    free_at.back() = start + service;
    std::push_heap(free_at.begin(), free_at.end(), greater);
    sink(start - t + service, service);
    t += gaps_after[i];
  }
}

/// Streaming per-pair latency accumulator over the registry histogram's
/// log-bucket geometry (obs::LogBucketLayout) — the percentile sketch of the
/// request path. Single-writer (each pair is owned by exactly one lane), so
/// counts are plain integers, not atomics; count/sum/min/max are exact and
/// percentiles interpolate within one bucket exactly like
/// obs::Histogram::percentile.
class LatencySketch {
 public:
  /// The layout is shared across every sketch of a run (same options =>
  /// same geometry) and must outlive the sketch.
  explicit LatencySketch(const obs::LogBucketLayout& layout)
      : layout_(&layout), counts_(layout.num_buckets(), 0) {}

  void record(double value) {
    ++counts_[layout_->bucket_of(value)];
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  long long count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Interpolated percentile, p in [0, 100]; 0 when empty.
  double percentile(double p) const {
    return layout_->percentile(counts_, count_, p, min_, max_);
  }

  /// Re-arms the sketch for the next pair (keeps the bucket allocation).
  void reset() {
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
  }

 private:
  const obs::LogBucketLayout* layout_;
  std::vector<long long> counts_;
  long long count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Geometry of the per-pair latency sketches (end-to-end milliseconds).
/// 64 buckets/decade bounds the percentile interpolation error at ~3.7%.
inline constexpr obs::HistogramOptions kLatencySketch{1e-2, 1e6, 64};

/// Parameters of one batched request-level simulation.
struct RequestSimOptions {
  double duration_s = 60.0;       ///< simulated seconds of arrivals
  double warmup_fraction = 0.1;   ///< leading fraction of each batch skipped
  std::uint64_t seed = 1;         ///< base seed; pair p uses substream_seed(seed, p)
  /// Lane count for the load-balanced pair sharding: 0 = the global pool's
  /// lanes (GEOPLACE_THREADS). Any value yields bit-identical output; tests
  /// pin it to compare 1 vs N directly.
  std::size_t max_lanes = 0;
};

/// Per-pair empirical statistics (end-to-end = queueing + service + network,
/// milliseconds). Entries exist for every pair; unloaded pairs keep
/// requests == 0. An unstable pair (per-server rate >= mu) reports its
/// nominal arrival count with every request violating and no latency
/// figures, mirroring dspp::evaluate_sla's overload treatment.
struct PairLatencyStats {
  std::size_t pair = 0;
  std::size_t requests = 0;     ///< measured requests (after warm-up skip)
  std::size_t violations = 0;   ///< requests whose queueing delay broke the pair budget
  double mean_ms = 0.0;         ///< exact streaming mean, end-to-end
  double p95_ms = 0.0;          ///< sketch percentile, end-to-end
  double utilization = 0.0;     ///< busy time / (servers * duration)
  bool unstable = false;
};

/// Aggregate of one batched simulation (the request-level counterpart of
/// dspp::SlaReport).
struct RequestSimReport {
  std::vector<PairLatencyStats> pairs;  ///< indexed by pair id
  std::size_t simulated_requests = 0;
  double mean_latency_ms = 0.0;         ///< request-weighted across pairs
  double worst_pair_p95_ms = 0.0;       ///< max per-pair p95 over stable loaded pairs
  double violating_fraction = 0.0;
};

/// Fires NHPP request streams at one deployment: for every loaded (l, v)
/// pair, simulates its split-M/M/1 server group (allocation rounded up to
/// whole servers) at the assignment's routed rate with the batched kernels
/// above. Deterministic for a fixed options.seed at ANY lane count and on
/// any SIMD tier.
RequestSimReport simulate_requests(const dspp::DsppModel& model, const dspp::PairIndex& pairs,
                                   const linalg::Vector& allocation,
                                   const dspp::Assignment& assignment,
                                   const RequestSimOptions& options);

/// simulate_day() parameters: `sim` is applied per period with the seed
/// advanced by substream_seed(sim.seed, period) so periods are independent.
struct RequestDayOptions {
  RequestSimOptions sim;
};

/// One engine run with the empirical request path attached.
struct RequestDayResult {
  SimulationSummary summary;                     ///< the analytic run, unchanged
  std::vector<RequestSimReport> period_reports;  ///< one per period
  std::size_t simulated_requests = 0;            ///< total across periods
  double request_wall_ms = 0.0;                  ///< wall time inside simulate_requests
  double requests_per_s = 0.0;                   ///< simulator throughput
};

/// Runs the engine's full day under `policy` with a request-level simulation
/// of every period's deployment riding the PeriodObserver hook. When the
/// telemetry timeline is armed, each period's frame gains the empirical
/// req_* columns next to the analytic SLA ones.
RequestDayResult simulate_day(SimulationEngine& engine, const PlacementPolicy& policy,
                              const RequestDayOptions& options);

}  // namespace gp::sim
