// Request-level (discrete-event) queueing simulation.
//
// Everything the controller plans with is an ANALYTIC queueing model — the
// per-server M/M/1 split of Section IV-B and the ln(1/(1-phi)) percentile
// factor. This module simulates actual Poisson request streams against
// FIFO servers so those formulas can be validated empirically:
//   * simulate_split_mm1   the paper's model: x independent M/M/1 servers,
//     each fed an equal Bernoulli split of the arrival stream;
//   * simulate_pooled_mmc  the M/M/c alternative: one FIFO queue drained by
//     x servers (resource pooling).
// The whole-deployment counterpart of dspp::evaluate_sla is
// simulate_requests (sim/request_path.hpp).
//
// Both simulations use exact recursions (Lindley for M/M/1, a server-heap
// for M/M/c) rather than a general event calendar — simpler, faster, and no
// approximation. They are thin wrappers over the batched request path's
// shared kernels (sim/request_path.hpp): they pre-fill the RNG draws in
// their original order and stay bit-identical to the pre-batched outputs.
#pragma once

#include <cstddef>

#include "common/rng.hpp"

namespace gp::sim {

/// Empirical statistics of one simulated queueing system.
struct QueueSimResult {
  std::size_t completed = 0;     ///< requests measured (after warm-up)
  double mean_response = 0.0;    ///< seconds (queueing + service)
  double p95_response = 0.0;     ///< 95th percentile, seconds
  double utilization = 0.0;      ///< busy time / (servers * duration)
};

/// The paper's model: `servers` independent M/M/1 FIFO queues, each fed a
/// Poisson(lambda / servers) stream (requests pick a server uniformly).
/// duration_s of arrivals are generated; the first warmup_fraction of
/// completed requests are discarded.
QueueSimResult simulate_split_mm1(double lambda, double mu, int servers, double duration_s,
                                  Rng& rng, double warmup_fraction = 0.1);

/// Pooled alternative: one FIFO queue drained by `servers` exponential
/// servers (M/M/c). warmup_fraction must be in [0, 1), like the split
/// simulator's.
QueueSimResult simulate_pooled_mmc(double lambda, double mu, int servers, double duration_s,
                                   Rng& rng, double warmup_fraction = 0.1);

}  // namespace gp::sim
