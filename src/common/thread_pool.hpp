// Fixed-size thread pool with a deterministic parallel_for.
//
// The pool exists for the library's embarrassingly parallel hot loops: the
// competition game's per-provider best responses (a Jacobi round — every
// response depends only on the quotas fixed at the top of the iteration),
// block assembly of the social-welfare QP, and the request replay's pairs.
// Design constraints, in order:
//
//  1. Determinism. parallel_for uses a STATIC contiguous partition of the
//     index range and callers write results by index, so the output of a
//     seeded experiment is bit-identical at any thread count (results land
//     by index, never by completion order). Where jobs are far from equal,
//     callers deal them to lanes with deal_lpt() (by measured best-response
//     cost in the game, by routed rate in the replay) and run one
//     parallel_for index per lane: the dealing decides only which lane does
//     a job, never what the job computes or where its result lands.
//  2. No oversubscription surprises. One process-wide pool (global()), sized
//     once from the GEOPLACE_THREADS environment variable when set, else
//     std::thread::hardware_concurrency(). Call sites can cap the lanes they
//     use (a game with 3 providers asks for at most 3) without resizing the
//     pool.
//  3. Nesting safety. A caller waiting on its own parallel_for drains other
//     queued chunks while it waits, so a parallel region entered from inside
//     a worker cannot deadlock the pool.
//
// Telemetry: the pool can account per-lane busy/idle/queue-wait time, task
// counts and the instantaneous queue depth (LaneTelemetry / PoolTelemetry).
// Accounting is OFF by default and gated on one relaxed atomic load per
// task — the observability layer arms it (sim::SimulationEngine when
// metrics or the timeline are enabled), and the engine turns each run's
// deltas into the pool_* timeline columns and pool.* registry metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace gp {

/// One lane's accumulated telemetry (a snapshot; counters only grow until
/// reset_telemetry()). Lane i < num_workers() is background worker i; the
/// last lane aggregates EXTERNAL threads — the caller executing its own
/// parallel_for chunk 0 or helping drain the queue while it waits.
struct LaneTelemetry {
  std::size_t lane = 0;
  unsigned long long tasks = 0;          ///< chunks executed on this lane
  unsigned long long busy_ns = 0;        ///< wall time inside task bodies
  unsigned long long idle_ns = 0;        ///< workers: wall time blocked waiting
  unsigned long long queue_wait_ns = 0;  ///< enqueue -> dequeue latency, summed
};

/// Pool-wide telemetry: the lane sums plus the instantaneous queue depth.
struct PoolTelemetry {
  unsigned long long tasks = 0;
  unsigned long long busy_ns = 0;
  unsigned long long idle_ns = 0;
  unsigned long long queue_wait_ns = 0;
  std::size_t queue_depth = 0;  ///< chunks queued right now
};

/// Fixed pool of worker threads (see file comment). `num_workers` counts the
/// BACKGROUND threads; parallel_for additionally runs on the calling thread,
/// so a pool built with N-1 workers yields N-way parallelism.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of background worker threads.
  std::size_t num_workers() const { return workers_.size(); }

  /// Maximum parallel lanes of this pool (workers + the calling thread).
  std::size_t max_lanes() const { return workers_.size() + 1; }

  /// Runs fn(i) for every i in [begin, end) and blocks until all calls have
  /// returned. The range is split into at most `max_threads` contiguous
  /// chunks (0 = use max_lanes()); the caller executes the first chunk
  /// itself. Scheduling is static, so any per-index output is identical at
  /// every thread count. The first exception thrown by fn is rethrown on the
  /// calling thread after the whole range has been dispatched.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t max_threads = 0);

  /// Lane count honoring GEOPLACE_THREADS: the environment variable when it
  /// parses to a positive integer, else hardware_concurrency() (min 1).
  static std::size_t default_lanes();

  /// The process-wide pool, created on first use with default_lanes() - 1
  /// workers. GEOPLACE_THREADS is read once, at creation.
  static ThreadPool& global();

  // ------------------------------------------------------------- telemetry

  /// Arms / disarms per-lane accounting. Off by default; a disarmed pool
  /// pays exactly one relaxed atomic load per executed chunk. Safe to flip
  /// at any time from any thread (counters may miss the flip boundary by
  /// one task — acceptable for utilization accounting).
  void set_telemetry_enabled(bool on) {
    telemetry_enabled_.store(on, std::memory_order_relaxed);
  }
  bool telemetry_enabled() const {
    return telemetry_enabled_.load(std::memory_order_relaxed);
  }

  /// Zeroes every lane counter (the queue-depth gauge is instantaneous and
  /// needs no reset).
  void reset_telemetry();

  /// Pool-wide counter sums plus the instantaneous queue depth.
  PoolTelemetry telemetry() const;

  /// Per-lane snapshot; size() == num_workers() + 1, the last entry being
  /// the shared external (caller) lane.
  std::vector<LaneTelemetry> lane_telemetry() const;

  /// Index of the external (caller) lane in lane_telemetry().
  std::size_t external_lane() const { return workers_.size(); }

 private:
  /// A queued parallel_for chunk. `enqueued` stays at the epoch default
  /// (meaning "unstamped") unless telemetry was armed at enqueue time, so a
  /// disarmed pool never reads the clock on the enqueue path.
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued{};
  };

  /// One lane's counters, cache-line separated so workers never contend on
  /// a shared line. Relaxed atomics: each worker lane is written by one
  /// thread; only the external lane is shared between caller threads.
  struct alignas(64) LaneCounters {
    std::atomic<unsigned long long> tasks{0};
    std::atomic<unsigned long long> busy_ns{0};
    std::atomic<unsigned long long> idle_ns{0};
    std::atomic<unsigned long long> queue_wait_ns{0};
  };

  void worker_loop(std::size_t lane);
  /// Pops and runs one queued chunk if any; returns false when idle.
  bool run_one_task();
  /// Runs one chunk, accounting busy/queue-wait to the calling lane when
  /// telemetry is armed.
  void execute(QueuedTask task);
  /// The telemetry lane of the calling thread: its worker index when the
  /// caller is one of this pool's workers, else the external lane.
  std::size_t current_lane() const;

  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  bool stopping_ = false;
  std::atomic<bool> telemetry_enabled_{false};
  std::unique_ptr<LaneCounters[]> lane_counters_;  ///< num_workers() + 1 entries
};

/// parallel_for on the global pool — the call used across the library.
/// `max_threads` caps the lanes (0 = all of the pool's lanes).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t max_threads = 0);

/// Deals jobs 0..weights.size()-1 to `lanes` lanes by the LPT rule (longest
/// processing time first): jobs in decreasing weight, ties to the lower
/// index, each to the least-loaded lane, ties to the lower lane. Returns
/// each lane's jobs in dealing order; every job appears exactly once, and
/// the deal is a pure function of (weights, lanes). A zero weight never
/// raises a lane's load, so jobs that weigh nothing all go to lane 0:
/// callers with no measurement yet should pass equal positive weights.
std::vector<std::vector<std::size_t>> deal_lpt(std::span<const double> weights,
                                               std::size_t lanes);

}  // namespace gp
