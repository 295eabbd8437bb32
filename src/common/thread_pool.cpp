#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>

#include "common/error.hpp"

namespace gp {

namespace {

/// Which pool (if any) owns the calling thread as a worker, and its lane.
/// Lets nested parallel_for work executed by a worker land on that worker's
/// lane instead of the external one.
thread_local const void* t_lane_pool = nullptr;
thread_local std::size_t t_lane_index = 0;

/// Nesting depth of accounted chunk bodies on this thread. Busy time is
/// added only by the OUTERMOST chunk (its wall time already encloses any
/// nested parallel_for chunks this thread helps drain), keeping per-lane
/// utilization <= 1.
thread_local std::size_t t_busy_depth = 0;

unsigned long long ns_between(std::chrono::steady_clock::time_point from,
                              std::chrono::steady_clock::time_point to) {
  return static_cast<unsigned long long>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_workers)
    : lane_counters_(new LaneCounters[num_workers + 1]) {
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::size_t ThreadPool::current_lane() const {
  return t_lane_pool == this ? t_lane_index : workers_.size();
}

void ThreadPool::worker_loop(std::size_t lane) {
  t_lane_pool = this;
  t_lane_index = lane;
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (telemetry_enabled() && !stopping_ && queue_.empty()) {
        const auto idle_start = std::chrono::steady_clock::now();
        work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        lane_counters_[lane].idle_ns.fetch_add(
            ns_between(idle_start, std::chrono::steady_clock::now()),
            std::memory_order_relaxed);
      } else {
        work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      }
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    execute(std::move(task));
  }
}

bool ThreadPool::run_one_task() {
  QueuedTask task;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  execute(std::move(task));
  return true;
}

void ThreadPool::execute(QueuedTask task) {
  if (!telemetry_enabled()) {  // the one relaxed load a disarmed pool pays
    task.fn();
    return;
  }
  LaneCounters& lane = lane_counters_[current_lane()];
  const auto start = std::chrono::steady_clock::now();
  if (task.enqueued != std::chrono::steady_clock::time_point{}) {
    lane.queue_wait_ns.fetch_add(ns_between(task.enqueued, start),
                                 std::memory_order_relaxed);
  }
  // Chunk bodies catch internally (run_chunk stores the first exception in
  // its region), so fn() does not throw and the plain depth bookkeeping is
  // safe without a scope guard.
  ++t_busy_depth;
  task.fn();
  --t_busy_depth;
  if (t_busy_depth == 0) {
    lane.busy_ns.fetch_add(ns_between(start, std::chrono::steady_clock::now()),
                           std::memory_order_relaxed);
  }
  lane.tasks.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t max_threads) {
  require(begin <= end, "parallel_for: begin > end");
  const std::size_t count = end - begin;
  if (count == 0) return;

  std::size_t lanes = max_threads == 0 ? max_lanes() : std::min(max_threads, max_lanes());
  lanes = std::min(lanes, count);
  if (lanes <= 1) {
    // Serial fallback: never touches the queue, so it is deliberately
    // invisible to pool telemetry (fn may also throw here, which the
    // accounted path does not allow).
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // Shared completion state for this region. Lives on the caller's stack:
  // the caller does not return before every chunk has finished. `pending` is
  // only touched under `mutex`, and workers notify while HOLDING it — the
  // caller can therefore observe pending == 0 (under the same mutex) only
  // after the last worker has released it, which makes destroying the region
  // on loop exit safe.
  struct Region {
    std::size_t pending;
    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr error;
    explicit Region(std::size_t n) : pending(n) {}
  } region(lanes - 1);

  // Static contiguous partition: chunk j covers
  // [begin + j*count/lanes, begin + (j+1)*count/lanes). Determinism relies
  // on this split being a pure function of (begin, end, lanes).
  auto run_chunk = [&fn, &region](std::size_t chunk_begin, std::size_t chunk_end) {
    try {
      for (std::size_t i = chunk_begin; i < chunk_end; ++i) fn(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(region.mutex);
      if (!region.error) region.error = std::current_exception();
    }
  };

  {
    // One clock read stamps the whole batch — queue-wait measures dispatch
    // latency, not per-chunk enqueue jitter.
    const auto stamp = telemetry_enabled() ? std::chrono::steady_clock::now()
                                           : std::chrono::steady_clock::time_point{};
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t j = 1; j < lanes; ++j) {
      const std::size_t chunk_begin = begin + j * count / lanes;
      const std::size_t chunk_end = begin + (j + 1) * count / lanes;
      queue_.push_back(QueuedTask{[run_chunk, chunk_begin, chunk_end, &region] {
                                    run_chunk(chunk_begin, chunk_end);
                                    const std::lock_guard<std::mutex> region_lock(
                                        region.mutex);
                                    --region.pending;
                                    region.done.notify_one();
                                  },
                                  stamp});
    }
  }
  work_available_.notify_all();

  // Caller executes chunk 0, then helps drain the queue while waiting —
  // this keeps nested parallel_for calls deadlock-free (some queued task is
  // always runnable by a thread that is otherwise blocked on its region).
  if (telemetry_enabled()) {
    LaneCounters& lane = lane_counters_[current_lane()];
    const auto start = std::chrono::steady_clock::now();
    ++t_busy_depth;
    run_chunk(begin, begin + count / lanes);  // catches: no throw past here
    --t_busy_depth;
    if (t_busy_depth == 0) {
      lane.busy_ns.fetch_add(ns_between(start, std::chrono::steady_clock::now()),
                             std::memory_order_relaxed);
    }
    lane.tasks.fetch_add(1, std::memory_order_relaxed);
  } else {
    run_chunk(begin, begin + count / lanes);
  }
  for (;;) {
    {
      const std::unique_lock<std::mutex> lock(region.mutex);
      if (region.pending == 0) break;
    }
    if (run_one_task()) continue;
    // Idle: sleep briefly on the region, then re-poll the queue (a nested
    // parallel_for may have enqueued chunks only this thread can run).
    std::unique_lock<std::mutex> lock(region.mutex);
    region.done.wait_for(lock, std::chrono::milliseconds(1),
                         [&region] { return region.pending == 0; });
    if (region.pending == 0) break;
  }

  if (region.error) std::rethrow_exception(region.error);
}

void ThreadPool::reset_telemetry() {
  const std::size_t lanes = workers_.size() + 1;
  for (std::size_t i = 0; i < lanes; ++i) {
    lane_counters_[i].tasks.store(0, std::memory_order_relaxed);
    lane_counters_[i].busy_ns.store(0, std::memory_order_relaxed);
    lane_counters_[i].idle_ns.store(0, std::memory_order_relaxed);
    lane_counters_[i].queue_wait_ns.store(0, std::memory_order_relaxed);
  }
}

PoolTelemetry ThreadPool::telemetry() const {
  PoolTelemetry total;
  const std::size_t lanes = workers_.size() + 1;
  for (std::size_t i = 0; i < lanes; ++i) {
    total.tasks += lane_counters_[i].tasks.load(std::memory_order_relaxed);
    total.busy_ns += lane_counters_[i].busy_ns.load(std::memory_order_relaxed);
    total.idle_ns += lane_counters_[i].idle_ns.load(std::memory_order_relaxed);
    total.queue_wait_ns += lane_counters_[i].queue_wait_ns.load(std::memory_order_relaxed);
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    total.queue_depth = queue_.size();
  }
  return total;
}

std::vector<LaneTelemetry> ThreadPool::lane_telemetry() const {
  const std::size_t lanes = workers_.size() + 1;
  std::vector<LaneTelemetry> out(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    out[i].lane = i;
    out[i].tasks = lane_counters_[i].tasks.load(std::memory_order_relaxed);
    out[i].busy_ns = lane_counters_[i].busy_ns.load(std::memory_order_relaxed);
    out[i].idle_ns = lane_counters_[i].idle_ns.load(std::memory_order_relaxed);
    out[i].queue_wait_ns = lane_counters_[i].queue_wait_ns.load(std::memory_order_relaxed);
  }
  return out;
}

std::size_t ThreadPool::default_lanes() {
  if (const char* env = std::getenv("GEOPLACE_THREADS")) {
    char* parse_end = nullptr;
    const long value = std::strtol(env, &parse_end, 10);
    if (parse_end != env && *parse_end == '\0' && value > 0) {
      return static_cast<std::size_t>(value);
    }
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_lanes() - 1);
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn, std::size_t max_threads) {
  ThreadPool::global().parallel_for(begin, end, fn, max_threads);
}

}  // namespace gp
