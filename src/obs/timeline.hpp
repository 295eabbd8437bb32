// Per-period telemetry timeline: one compact TelemetryFrame per simulation
// period, recorded into per-thread SoA rings and flushed as manifest-headed
// columnar JSONL — the structured time-series view behind the paper's
// per-period figures (cost tracking, convergence effort, forecast error),
// available on every run instead of only in purpose-built benches.
//
// Design rules, in order (they mirror obs/metrics and obs/recorder):
//  1. Off by default, one branch when off. The engine checks
//     TimelineWriter::enabled() — a relaxed atomic load — once per period;
//     cross-layer contributors (the MPC controller, both QP solvers) call
//     timeline_frame(), which is the same relaxed load plus a thread-local
//     read, and write into the open frame only when one exists. A disabled
//     run pays one predictable branch per period/solve and nothing else
//     (the perf_sweep timeline-overhead gate verifies this end to end).
//  2. Race-free without locks. local() returns a thread_local writer, so
//     sweep lanes each record their own run's frames; the only lock is the
//     process-wide file mutex taken by flush(), once per run.
//  3. O(1) and allocation-free per frame after the ring's lazy first
//     allocation. Frames are a fixed set of double columns (SoA: one
//     vector per column), so committing a frame is kNumColumns stores and
//     an index bump — no heap traffic inside the simulation loop.
//  4. Bounded memory: kDefaultCapacity frames per recording thread; the
//     ring overwrites the oldest frame once full (a 48-period paper run
//     uses 48 slots).
//
// Recording protocol: the OWNER of the period loop (sim::SimulationEngine)
// calls begin(period, hour), lower layers fill fields of current() while
// the frame is open, and the owner calls commit() at period end. The
// engine clears this thread's ring at run start, so after engine.run() the
// ring holds exactly that run's frames — which is what SweepRunner
// snapshots into per-cell timeline sidecars.
//
// GEOPLACE_TIMELINE values mirror GEOPLACE_METRICS: unset/"0"/"false"/
// "off" — disabled; "1"/"true"/"on" — enabled (in-memory; callers snapshot
// or write explicitly); any other value — enabled AND every engine run
// appends its timeline to that path (flush()).
//
// Columnar JSONL format (the input of tools/gp_report):
//   {"type":"manifest",...}                                  (optional head)
//   {"type":"timeline","frames":N,"columns":["period",...]}  (segment head)
//   {"type":"timeline_col","name":"period","values":[...]}   (one per column)
// Values are shortest-round-trip doubles; non-finite values are null.
#pragma once

#include <atomic>
#include <cstddef>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "obs/manifest.hpp"

namespace gp::obs {

// The frame columns, in export order. All columns are doubles (period and
// the counters fit exactly — they stay far below 2^53). Adding a column
// here updates the struct, the SoA ring, the JSONL export and gp_report's
// expectations in one place.
//
// Conventions: forecast_rel_err is -1 when no forecast was available (first
// period, baseline policies); cost_sla_penalty is the policy's PLANNED
// unserved-demand penalty (soft-constraint MPC), 0 under hard constraints;
// solver_* fields accumulate over every QP solve that ran inside the
// period (an MPC step is usually one). The req_* columns are the EMPIRICAL
// SLA view of the period — filled only when a request-level simulation ran
// alongside the analytic evaluation (sim::simulate_day), 0 otherwise; they
// sit next to sla_compliance/mean_latency_ms so gp_report can put the
// M/M/1 closed form and the simulated request stream on one axis.
// demand_total is the demand observed in period k; demand_served_total is
// period k+1's, the demand the row's servers, cost and SLA are measured
// against. window_fallback is 1 when the period's exact MPC window went to
// ADMM and 0 when the separable path certified it (dspp/window_solver.hpp).
// The pool_* columns are per-period DELTAS of the global thread pool's lane
// telemetry (common/thread_pool): busy/idle/queue-wait milliseconds summed
// over lanes, chunks executed, and pool_util = busy / (busy + idle) in
// [0, 1] (0 when the pool did no accounted work that period). The engine
// arms pool telemetry for the duration of a run whenever the timeline or
// metrics are enabled, so these are 0 on runs observed by neither.
#define GP_TIMELINE_COLUMNS(X) \
  X(period)                    \
  X(utc_hour)                  \
  X(demand_total)              \
  X(demand_served_total)       \
  X(servers_total)             \
  X(dc_active)                 \
  X(dc_max_share)              \
  X(cost_resource)             \
  X(cost_reconfig)             \
  X(cost_sla_penalty)          \
  X(sla_compliance)            \
  X(sla_violating_rate)        \
  X(overloaded_pairs)          \
  X(unserved_rate)             \
  X(mean_latency_ms)           \
  X(forecast_rel_err)          \
  X(solver_iterations)         \
  X(solver_primal_residual)    \
  X(solver_dual_residual)      \
  X(solver_factorizations)     \
  X(solver_cache_hits)         \
  X(solver_factorization_skipped) \
  X(solved)                    \
  X(window_fallback)           \
  X(policy_ms)                 \
  X(sla_ms)                    \
  X(period_ms)                 \
  X(req_simulated)             \
  X(req_mean_latency_ms)       \
  X(req_worst_p95_ms)          \
  X(req_violating_fraction)    \
  X(pool_busy_ms)              \
  X(pool_idle_ms)              \
  X(pool_queue_wait_ms)        \
  X(pool_tasks)                \
  X(pool_util)

/// One period's telemetry (see the column list for field semantics).
struct TelemetryFrame {
#define GP_TIMELINE_FIELD(name) double name = 0.0;
  GP_TIMELINE_COLUMNS(GP_TIMELINE_FIELD)
#undef GP_TIMELINE_FIELD
};

/// Number of columns in a TelemetryFrame.
std::size_t timeline_num_columns();

/// Column names, export order (matching GP_TIMELINE_COLUMNS).
const std::vector<std::string>& timeline_column_names();

/// Writes one columnar JSONL segment (manifest line first when given) for
/// the frames, oldest first — shared by TimelineWriter::write_jsonl, the
/// sweep's per-cell sidecars and gp_report's self-test fixture.
void write_timeline_jsonl(std::ostream& out, std::span<const TelemetryFrame> frames,
                          const RunManifest* manifest = nullptr);

/// Per-thread SoA ring of TelemetryFrames (see file comment).
class TimelineWriter {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Global timeline flag (relaxed load), initialized from GEOPLACE_TIMELINE
  /// on first use; see file comment for the accepted values.
  static bool enabled();
  static void set_enabled(bool enabled);

  /// The auto-flush destination from GEOPLACE_TIMELINE (empty when the
  /// value was a plain on/off flag or unset). set_enabled() keeps it.
  static const std::string& dump_path();

  /// Replaces the auto-flush destination (tests; not thread-safe against
  /// concurrent flushes — set it before recording starts).
  static void set_dump_path(std::string path);

  /// This thread's writer; constructed lazily on first use.
  static TimelineWriter& local();

  explicit TimelineWriter(std::size_t capacity = kDefaultCapacity);

  /// Dump-at-exit parity with GEOPLACE_METRICS: if frames were committed
  /// after the last explicit flush() (a process that exits mid-run, or one
  /// that never reaches the engine's end-of-run flush), the destructor
  /// flushes them to dump_path(). Threads exiting cleanly therefore never
  /// silently drop recorded periods.
  ~TimelineWriter();

  /// Opens the frame for one period (any previously open frame is
  /// discarded). Returns the frame for the period owner to fill.
  TelemetryFrame& begin(long long period, double utc_hour);

  /// The open frame, or nullptr when none is open — the hook lower layers
  /// (solvers, controllers) use to contribute fields.
  TelemetryFrame* current() { return open_ ? &open_frame_ : nullptr; }

  /// Pushes the open frame into the ring (overwriting the oldest once
  /// full) and closes it. No-op when no frame is open.
  void commit();

  /// Drops the ring contents and any open frame.
  void clear();

  std::size_t size() const { return count_ < capacity_ ? count_ : capacity_; }
  std::size_t capacity() const { return capacity_; }
  long long total_committed() const { return static_cast<long long>(count_); }

  /// The retained frames, oldest first (gathered back from the SoA ring).
  std::vector<TelemetryFrame> frames() const;

  /// write_timeline_jsonl over the retained frames.
  void write_jsonl(std::ostream& out, const RunManifest* manifest = nullptr) const;

  /// Appends this thread's retained frames to dump_path() as one columnar
  /// segment, under a process-wide file lock. No-op when no dump path is
  /// set or the ring is empty. The engine calls this at the end of every
  /// run when a path is armed.
  void flush() const;

 private:
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;   ///< next ring slot to write
  std::size_t count_ = 0;  ///< total commits since clear()
  /// count_ at the last flush() — the destructor flushes only when commits
  /// happened after it (mutable: flush() is logically const).
  mutable std::size_t flushed_count_ = 0;
  bool open_ = false;
  TelemetryFrame open_frame_;
  /// One vector per column (SoA), each sized `capacity_` lazily on the
  /// first commit.
  std::vector<std::vector<double>> columns_;
};

/// Shorthand mirroring metrics_enabled()/recording_enabled().
inline bool timeline_enabled() { return TimelineWriter::enabled(); }

/// The open frame of THIS thread, or nullptr when the timeline is disabled
/// or no period frame is open — the one-line gate for cross-layer
/// contributors (cost: a relaxed atomic load plus a thread_local read).
inline TelemetryFrame* timeline_frame() {
  return timeline_enabled() ? TimelineWriter::local().current() : nullptr;
}

}  // namespace gp::obs
