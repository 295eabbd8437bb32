// The benchmark's three workloads and the instrumented episode that runs
// one of them. An episode is one closed-loop run of a workload from a cold
// start: build the scenario, construct the policy and engine, run every
// period (the engine starts period k+1 only after period k is done), and
// record clock reads around the public calls it makes into the library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "control/mpc_controller.hpp"
#include "ledger.hpp"
#include "scenario/policy.hpp"
#include "sim/engine.hpp"

namespace perfbench {

/// What one workload runs (see README.md for why each exists).
struct WorkloadInfo {
  std::string name;
  std::size_t episode_periods = 0;  ///< control periods per episode
  std::size_t check_periods = 0;    ///< prefix re-run at one lane for the determinism check
  std::string spec_hash;            ///< FNV-1a of the inputs' canonical JSON, seed included
  std::string shape_hash;           ///< the same with the seed zeroed (pooling key)
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for unknown names.
WorkloadInfo describe_workload(const std::string& name, std::uint64_t seed);

struct EpisodeOptions {
  std::uint64_t seed = 1;
  std::size_t periods = 0;  ///< 0 = the workload's episode length
  bool traced = false;      ///< arm GEOPLACE_METRICS/TIMELINE channels and pool telemetry
  std::size_t lanes = 0;    ///< lane cap of every pool user (0 = all lanes)
};

/// One period as seen from outside the library.
struct PeriodRecord {
  LedgerRow ledger;
  double iterations = 0.0;   ///< ADMM iterations spent deciding the period
  double replay_ms = 0.0;    ///< inside sim::simulate_requests
  double requests = 0.0;     ///< simulated requests
  double game_rounds = 0.0;  ///< Algorithm 2 rounds
  // Traced episodes only: deltas of the registry and pool counters.
  double admm_solves = 0.0;
  double admm_iterations = 0.0;
  double admm_factorizations = 0.0;
  double admm_structure_hits = 0.0;
  double admm_skipped = 0.0;
  double admm_solve_ms = 0.0;
  double best_responses = 0.0;
  double pool_busy_ms = 0.0;
  double pool_idle_ms = 0.0;
  double pool_queue_wait_ms = 0.0;
  double pool_tasks = 0.0;
};

struct EpisodeResult {
  double build_ms = 0.0;        ///< scenario::build (+ tenant assembly)
  double construct_ms = 0.0;    ///< policy and engine construction
  double cold_period_ms = 0.0;  ///< run() entry to the start of period 1
  std::vector<PeriodRecord> periods;

  /// Per-period quality fields, flattened; compared bit for bit.
  std::vector<double> quality;
  std::size_t quality_stride = 0;

  double cost_total = 0.0;       ///< as the library reports it
  double cost_recomposed = 0.0;  ///< re-summed from the per-period costs
  double sla_mean = 0.0;
  double sla_min = 0.0;
  double churn_total = 0.0;
  int failed_periods = 0;        ///< unsolved MPC / non-converged game periods
  int game_at_max_iterations = 0;
  double requests_total = 0.0;      ///< running sum of the per-period reports
  double requests_recounted = 0.0;  ///< re-summed from the per-pair stats
  double violations_total = 0.0;
  double replay_ms_total = 0.0;
  double best_response_ms_p50 = 0.0;  ///< registry histogram (traced)
  bool timeline_consistent = true;    ///< traced: timeline frames match the outside view
  std::size_t qp_blocks = 0;          ///< consensus blocks of the MPC window (0: no MPC)

  double setup_s() const { return (build_ms + construct_ms + cold_period_ms) / 1000.0; }
};

EpisodeResult run_episode(const std::string& workload, const EpisodeOptions& options);

// ---------------------------------------------------------------- building
// blocks of the MPC episodes, exposed for the benchmark's own tests.

/// The controller make_policy builds for an "mpc" PolicySpec, with both
/// predictors wrapped in TimedPredictor.
std::unique_ptr<gp::control::MpcController> make_timed_controller(
    const gp::scenario::ScenarioBundle& bundle, const gp::scenario::PolicySpec& policy,
    PredictClock& clock);

/// Iteration-recording policy closure: forwards to controller.step exactly
/// as sim::policy_from does, stamping each call into `stamps` and appending
/// MpcStepResult::solver_iterations to `iterations`. `on_begin` (optional)
/// runs first thing in each call. The captures must outlive the closure.
gp::sim::PlacementPolicy recording_policy(gp::control::MpcController& controller,
                                          PredictClock& clock,
                                          std::vector<PeriodStamps>& stamps,
                                          std::vector<int>& iterations,
                                          std::function<void()> on_begin = {});

}  // namespace perfbench
