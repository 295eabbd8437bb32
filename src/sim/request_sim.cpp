#include "sim/request_sim.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "sim/request_path.hpp"

namespace gp::sim {

namespace {

/// Trims warm-up samples and summarizes response times (seconds). The
/// measured suffix is viewed in place — no copy of the response vector.
QueueSimResult summarize(const std::vector<double>& responses, double busy_time, int servers,
                         double duration_s, double warmup_fraction) {
  QueueSimResult result;
  const auto skip = static_cast<std::size_t>(warmup_fraction *
                                             static_cast<double>(responses.size()));
  if (responses.size() <= skip) return result;
  const std::span<const double> measured(responses.data() + skip, responses.size() - skip);
  result.completed = measured.size();
  result.mean_response = mean(measured);
  result.p95_response = percentile(measured, 95.0);
  result.utilization = busy_time / (static_cast<double>(servers) * duration_s);
  return result;
}

}  // namespace

// Both simulators below are thin wrappers over the batched kernels of
// sim/request_path.hpp: the RNG draws are pre-filled into SoA buffers in the
// EXACT order the original interleaved loops consumed them, and the kernels
// replay the recursions with the same floating-point accumulation order, so
// the outputs are bit-identical to the pre-batched implementations for any
// (seed, parameters). The batched hot path (simulate_requests) shares the
// same kernels with count-first batch generation instead.

QueueSimResult simulate_split_mm1(double lambda, double mu, int servers, double duration_s,
                                  Rng& rng, double warmup_fraction) {
  require(lambda >= 0.0, "simulate_split_mm1: negative arrival rate");
  require(mu > 0.0, "simulate_split_mm1: mu must be > 0");
  require(servers >= 1, "simulate_split_mm1: need at least one server");
  require(duration_s > 0.0, "simulate_split_mm1: duration must be > 0");
  require(warmup_fraction >= 0.0 && warmup_fraction < 1.0,
          "simulate_split_mm1: warmup fraction in [0, 1)");

  // A uniform split of a Poisson process is a Poisson process per server,
  // and the servers are independent: each is the exact Lindley recursion
  // W_{n+1} = max(0, W_n + S_n - A_{n+1}).
  const double per_server_rate = lambda / static_cast<double>(servers);
  std::vector<double> responses;
  std::vector<double> services, gaps;
  double busy_time = 0.0;
  for (int s = 0; s < servers; ++s) {
    if (per_server_rate <= 0.0) break;
    // Legacy draw order per request: service, then the gap to the next
    // arrival (the first arrival time only decides the count).
    services.clear();
    gaps.clear();
    double t = rng.exponential(per_server_rate);
    while (t < duration_s) {
      services.push_back(rng.exponential(mu));
      const double gap = rng.exponential(per_server_rate);
      gaps.push_back(gap);
      t += gap;
    }
    lindley_kernel(services, gaps, 0.0, [&](double response, double service) {
      responses.push_back(response);
      busy_time += service;
    });
  }
  return summarize(responses, busy_time, servers, duration_s, warmup_fraction);
}

QueueSimResult simulate_pooled_mmc(double lambda, double mu, int servers, double duration_s,
                                   Rng& rng, double warmup_fraction) {
  require(lambda >= 0.0, "simulate_pooled_mmc: negative arrival rate");
  require(mu > 0.0, "simulate_pooled_mmc: mu must be > 0");
  require(servers >= 1, "simulate_pooled_mmc: need at least one server");
  require(duration_s > 0.0, "simulate_pooled_mmc: duration must be > 0");
  require(warmup_fraction >= 0.0 && warmup_fraction < 1.0,
          "simulate_pooled_mmc: warmup fraction in [0, 1)");

  // FIFO M/M/c: each arrival starts service at max(arrival, earliest free
  // server); a min-heap over server-free times is the whole state.
  std::vector<double> services, gaps;
  const double first_arrival = lambda > 0.0 ? rng.exponential(lambda) : duration_s;
  double t = first_arrival;
  while (t < duration_s) {
    services.push_back(rng.exponential(mu));
    const double gap = rng.exponential(lambda);
    gaps.push_back(gap);
    t += gap;
  }
  std::vector<double> free_at(static_cast<std::size_t>(servers), 0.0);
  std::vector<double> responses;
  double busy_time = 0.0;
  mmc_heap_kernel(first_arrival, services, gaps, free_at,
                  [&](double response, double service) {
                    responses.push_back(response);
                    busy_time += service;
                  });
  return summarize(responses, busy_time, servers, duration_s, warmup_fraction);
}

}  // namespace gp::sim
