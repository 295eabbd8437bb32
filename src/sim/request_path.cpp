#include "sim/request_path.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "workload/demand.hpp"

namespace gp::sim {

namespace {

/// Batch cap: one SoA chunk never exceeds this many requests (~8 MB per
/// buffer per lane). Below the cap a pair's server stream is generated with
/// the exact conditional spacings; above it the count draw is already in
/// sample_poisson_count's normal-approximation regime (> 1e6) and the gaps
/// fall back to iid Exp(lambda) chunks.
constexpr std::size_t kBatchCap = std::size_t{1} << 20;

/// Per-lane scratch: reused across every pair the lane owns, so steady-state
/// allocation is zero.
struct LaneScratch {
  std::vector<double> gaps;
  std::vector<double> services;
};

/// Fills `out` with Exp(rate) draws: the uniforms successive
/// Rng::exponential(rate) calls would consume, in the same order, mapped
/// through linalg::neg_log_div (see the drift bound in request_path.hpp).
void draw_exponentials(Rng& rng, double rate, std::vector<double>& out) {
  rng.fill_uniform_open(out);
  linalg::neg_log_div(out, rate, out);
}

/// One M/M/1 server stream of exactly `n` pre-counted arrivals at `rate`
/// over `duration_s`, feeding the Lindley kernel. The sink sees every
/// request in arrival order (warm-up skipping is the caller's concern).
template <typename Sink>
void run_server_stream(std::size_t n, double rate, double mu, double duration_s, Rng& rng,
                       LaneScratch& scratch, Sink&& sink) {
  if (n == 0) return;
  if (n <= kBatchCap) {
    // Conditioned on N arrivals in [0, T], the gaps are N+1 iid Exp(1)
    // spacings normalized to sum T (order-statistics identity, no sort).
    scratch.gaps.resize(n + 1);
    draw_exponentials(rng, 1.0, scratch.gaps);
    double sum = 0.0;
    for (const double gap : scratch.gaps) sum += gap;
    const double scale = duration_s / sum;
    for (double& gap : scratch.gaps) gap *= scale;
    scratch.services.resize(n);
    draw_exponentials(rng, mu, scratch.services);
    // The Lindley recursion needs the gap AFTER each request: gaps[1..n].
    lindley_kernel(scratch.services, std::span<const double>(scratch.gaps).subspan(1), 0.0,
                   sink);
    return;
  }
  // Above the cap: iid Exp(rate) gaps in chunks, Lindley wait threaded
  // through. At >1e6 arrivals the conditional correction is far below
  // sampling noise (the count itself is a normal approximation already).
  double wait = 0.0;
  std::size_t done = 0;
  while (done < n) {
    const std::size_t m = std::min(kBatchCap, n - done);
    scratch.gaps.resize(m);
    draw_exponentials(rng, rate, scratch.gaps);
    scratch.services.resize(m);
    draw_exponentials(rng, mu, scratch.services);
    wait = lindley_kernel(scratch.services, scratch.gaps, wait, sink);
    done += m;
  }
}

/// Simulates one loaded (l, v) pair end to end and returns its slot entry.
PairLatencyStats simulate_pair(const dspp::DsppModel& model, const dspp::PairIndex& pairs,
                               std::size_t p, double rate, int servers,
                               const RequestSimOptions& options, LaneScratch& scratch,
                               LatencySketch& sketch) {
  PairLatencyStats stats;
  stats.pair = p;
  const std::size_t l = pairs.datacenter_of(p);
  const std::size_t v = pairs.access_network_of(p);
  const double mu = model.sla.mu;
  const double per_server = rate / static_cast<double>(servers);
  if (per_server >= mu) {
    // Unstable queue: every request violates (dspp::evaluate_sla's overload
    // treatment); no latency statistics are meaningful.
    stats.unstable = true;
    stats.requests = static_cast<std::size_t>(rate * options.duration_s);
    stats.violations = stats.requests;
    stats.utilization = 1.0;
    return stats;
  }
  const double network_ms = model.network.latency_ms(l, v);
  const double queue_budget_ms = model.max_latency_ms_for(l, v) - network_ms;

  sketch.reset();
  Rng rng(substream_seed(options.seed, p));
  std::size_t violations = 0;
  double busy_time = 0.0;
  for (int s = 0; s < servers; ++s) {
    // Count first (the per-server thinned stream is itself Poisson), then
    // the warm-up is an exact skip of the first floor(w * n) requests — no
    // retroactive trim, because the batch size is known up front.
    const auto n = static_cast<std::size_t>(
        workload::sample_poisson_count(per_server * options.duration_s, rng));
    if (n == 0) continue;
    std::size_t remaining_skip =
        static_cast<std::size_t>(options.warmup_fraction * static_cast<double>(n));
    run_server_stream(n, per_server, mu, options.duration_s, rng, scratch,
                      [&](double response_s, double service_s) {
                        busy_time += service_s;
                        if (remaining_skip > 0) {
                          --remaining_skip;
                          return;
                        }
                        const double queue_ms = response_s * 1000.0;
                        sketch.record(network_ms + queue_ms);
                        if (queue_ms > queue_budget_ms) ++violations;
                      });
  }
  stats.requests = static_cast<std::size_t>(sketch.count());
  stats.violations = violations;
  stats.mean_ms = sketch.mean();
  stats.p95_ms = sketch.percentile(95.0);
  stats.utilization = busy_time / (static_cast<double>(servers) * options.duration_s);
  return stats;
}

}  // namespace

RequestSimReport simulate_requests(const dspp::DsppModel& model, const dspp::PairIndex& pairs,
                                   const linalg::Vector& allocation,
                                   const dspp::Assignment& assignment,
                                   const RequestSimOptions& options) {
  require(allocation.size() == pairs.num_pairs(), "simulate_requests: allocation size");
  require(assignment.rate.size() == pairs.num_pairs(), "simulate_requests: rate size");
  require(options.duration_s > 0.0, "simulate_requests: duration must be > 0");
  require(options.warmup_fraction >= 0.0 && options.warmup_fraction < 1.0,
          "simulate_requests: warmup fraction in [0, 1)");
  require(model.sla.mu > 0.0, "simulate_requests: mu must be > 0");

  RequestSimReport report;
  report.pairs.resize(pairs.num_pairs());
  for (std::size_t p = 0; p < pairs.num_pairs(); ++p) report.pairs[p].pair = p;

  const std::size_t lanes =
      options.max_lanes > 0 ? options.max_lanes : ThreadPool::global().max_lanes();
  const obs::LogBucketLayout layout(kLatencySketch);

  // Load-balanced lane sharding: the loaded pairs are dealt by deal_lpt()
  // (heaviest routed rate first, each to the least-loaded lane; ties to the
  // lower pair and lane index), since a pair's work is proportional to its
  // rate and city demand is far from uniform. Each pair's RNG substream
  // depends only on the pair index and every statistic lands in a slot
  // indexed by pair, so the output is bit-identical at ANY lane count —
  // sharding only decides who does the work.
  std::vector<std::size_t> loaded;
  std::vector<double> loaded_rate;
  std::vector<int> servers(pairs.num_pairs(), 0);
  for (std::size_t p = 0; p < pairs.num_pairs(); ++p) {
    servers[p] = static_cast<int>(std::ceil(allocation[p] - 1e-9));
    if (assignment.rate[p] > 0.0 && servers[p] >= 1) {
      loaded.push_back(p);
      loaded_rate.push_back(assignment.rate[p]);
    }
  }
  const std::vector<std::vector<std::size_t>> lane_jobs = deal_lpt(loaded_rate, lanes);

  parallel_for(
      0, lanes,
      [&](std::size_t lane) {
        LaneScratch scratch;
        LatencySketch sketch(layout);
        for (const std::size_t job : lane_jobs[lane]) {
          const std::size_t p = loaded[job];
          report.pairs[p] = simulate_pair(model, pairs, p, assignment.rate[p], servers[p],
                                          options, scratch, sketch);
        }
      },
      lanes);

  // Aggregate in pair order on the calling thread (deterministic reduction).
  double weighted_latency = 0.0;
  double weighted_requests = 0.0;
  double violating = 0.0;
  for (const PairLatencyStats& stats : report.pairs) {
    if (stats.requests == 0) continue;
    const auto requests = static_cast<double>(stats.requests);
    report.simulated_requests += stats.requests;
    weighted_requests += requests;
    violating += static_cast<double>(stats.violations);
    if (stats.unstable) continue;
    weighted_latency += stats.mean_ms * requests;
    report.worst_pair_p95_ms = std::max(report.worst_pair_p95_ms, stats.p95_ms);
  }
  if (weighted_requests > 0.0) {
    report.mean_latency_ms = weighted_latency / weighted_requests;
    report.violating_fraction = violating / weighted_requests;
  }
  return report;
}

RequestDayResult simulate_day(SimulationEngine& engine, const PlacementPolicy& policy,
                              const RequestDayOptions& options) {
  RequestDayResult result;
  const PeriodObserver observer = [&](const PeriodContext& ctx) {
    RequestSimOptions period_options = options.sim;
    period_options.seed = substream_seed(options.sim.seed, ctx.period);
    obs::Span span("sim.request_path", static_cast<double>(ctx.period));
    RequestSimReport report = simulate_requests(engine.model(), engine.pairs(),
                                                ctx.allocation, ctx.assignment, period_options);
    result.request_wall_ms += span.close();
    result.simulated_requests += report.simulated_requests;
    if (obs::TelemetryFrame* frame = obs::timeline_frame()) {
      frame->req_simulated = static_cast<double>(report.simulated_requests);
      frame->req_mean_latency_ms = report.mean_latency_ms;
      frame->req_worst_p95_ms = report.worst_pair_p95_ms;
      frame->req_violating_fraction = report.violating_fraction;
    }
    result.period_reports.push_back(std::move(report));
  };
  result.summary = engine.run(policy, observer);
  if (result.request_wall_ms > 0.0) {
    result.requests_per_s =
        static_cast<double>(result.simulated_requests) / (result.request_wall_ms / 1000.0);
  }
  return result;
}

}  // namespace gp::sim
