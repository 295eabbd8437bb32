// In-process sampling profiler over the RAII span stacks.
//
// Every thread that opens an obs::Span while profiling is armed maintains a
// thread-local SpanStack — the nesting of currently OPEN span names (static
// string literals, stored by pointer). A single watcher thread wakes at the
// configured rate and snapshots every registered stack, so a profile
// attributes wall time to the span path each thread was actually inside
// ("engine.run;sim.period;sim.policy;admm.solve;admm.factor") without
// signals, frame-pointer unwinding or debug info — fully portable, and safe
// under common/thread_pool because the stack is all atomics.
//
// Design rules, in order (they mirror obs/metrics, obs/trace and
// obs/timeline):
//  1. Off by default, ONE relaxed atomic check when off. Span's
//     constructor/close call profiling_enabled() — a relaxed load — and
//     touch the SpanStack only when armed. A disabled run pays one
//     predictable branch per span and nothing else (perf_parallel gates the
//     armed overhead at <= 5% and asserts disabled-is-silent).
//  2. Lock-free sampling path. A SpanStack is a fixed array of atomic
//     pointers plus a seqlock-style version counter: the owner pushes and
//     pops with relaxed stores and two version bumps; the watcher detects a
//     concurrent mutation and discards the (rare) torn sample instead of
//     blocking the owner. The only mutex guards thread REGISTRATION — once
//     per thread, never on the span path.
//  3. Samples accumulate off the hot threads. The watcher deposits raw
//     snapshots into a per-thread ring (watcher-owned, so the sampled
//     threads never see it) and folds full rings into per-thread collapsed
//     stack counts; stop() merges the per-thread folds into one
//     manifest-headed folded-stack file:
//         {"type":"manifest",...}
//         engine.run;sim.period;sim.policy;admm.solve 127
//     — the input of tools/gp_flame and every external flamegraph stack
//     tool (the manifest line is stripped by obs::strip_manifest_lines).
//  4. Transparent. The profiler never touches simulation state; armed and
//     unarmed runs produce bit-identical artifacts (asserted by
//     bench/perf_parallel).
//
// Enabling: GEOPLACE_PROFILE=<path>[:hz] before the process starts (read
// once, at the first armed-check; the watcher starts then and the folded
// file is written at process exit), or programmatically via
// Profiler::global().start(path, hz) / stop(). hz defaults to
// kDefaultHz and is clamped to [1, 10000].
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gp::obs {

/// The thread-local stack of open span names (see file comment). All fields
/// are atomics: the OWNER thread mutates, the watcher snapshots; a version
/// counter (odd while a mutation is in flight) lets the watcher reject torn
/// reads without ever blocking the owner.
class SpanStack {
 public:
  /// Frames beyond this depth are counted but not recorded (the sample
  /// shows the truncated prefix). Span nesting in this codebase is < 10.
  static constexpr std::size_t kMaxDepth = 32;

  /// Owner-side push/pop. `name` must be a static string literal (the
  /// stack stores the pointer — same contract as obs::ConvergenceSample).
  void push(const char* name) noexcept;
  void pop() noexcept;

  /// Watcher-side consistent snapshot into `frames` (sized >= kMaxDepth).
  /// Returns false when a concurrent push/pop tore the read — the caller
  /// drops the sample. `depth` is clamped to kMaxDepth.
  bool snapshot(const char** frames, std::uint32_t& depth) const noexcept;

  /// Current depth (owner thread or tests; racy from elsewhere).
  std::uint32_t depth() const { return depth_.load(std::memory_order_relaxed); }

 private:
  std::atomic<const char*> frames_[kMaxDepth] = {};
  std::atomic<std::uint32_t> depth_{0};
  std::atomic<std::uint64_t> version_{0};  ///< odd while a mutation is in flight
};

/// One profiled thread's sampling state. The SpanStack is shared between
/// the owner (push/pop) and the watcher (snapshot); the ring and the fold
/// map are touched ONLY by the watcher (and by flush, after the watcher
/// has been joined), so they need no synchronization of their own.
struct ProfiledThread {
  static constexpr std::size_t kRingCapacity = 512;

  struct RawSample {
    const char* frames[SpanStack::kMaxDepth];
    std::uint32_t depth = 0;
  };

  SpanStack stack;
  std::atomic<bool> alive{true};  ///< cleared by the owner's thread-exit hook
  std::vector<RawSample> ring;    ///< watcher-owned; lazily sized to kRingCapacity
  std::size_t ring_count = 0;     ///< filled slots; folded when the ring is full
  std::map<std::string, std::uint64_t> folded;  ///< collapsed stack -> samples
};

/// The process-wide sampling profiler (see file comment).
class Profiler {
 public:
  static constexpr double kDefaultHz = 997.0;  ///< odd rate avoids lockstep
  static constexpr double kMaxHz = 10000.0;

  /// The process-wide profiler; reads GEOPLACE_PROFILE on first use and, if
  /// armed there, starts the watcher (the destructor then stops it and
  /// writes the folded file, so an env-armed run needs no explicit stop).
  static Profiler& global();

  /// Relaxed load of the armed flag — the one check Span pays when off.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Starts the watcher thread sampling every registered SpanStack at `hz`
  /// (clamped to [1, kMaxHz]); samples accumulate until stop(). Drops any
  /// previously accumulated profile. No-op when already running.
  void start(std::string path, double hz = kDefaultHz);

  /// Stops sampling, joins the watcher, folds the remaining rings and
  /// writes the manifest-headed folded-stack file to the configured path
  /// (skipped when the path is empty — tests read folded() instead).
  void stop();

  /// Registers the calling thread's stack (idempotent per thread). Spans
  /// call this lazily through span_stack_push().
  std::shared_ptr<ProfiledThread> register_thread();

  /// Merged collapsed-stack counts (call after stop()). Empty-stack samples
  /// are folded under "(idle)".
  std::map<std::string, std::uint64_t> folded() const;

  /// Total accepted samples and torn (discarded) snapshot reads so far.
  std::uint64_t total_samples() const { return samples_.load(std::memory_order_relaxed); }
  std::uint64_t torn_samples() const { return torn_.load(std::memory_order_relaxed); }

  /// The configured output path ("" when none) and sampling rate.
  const std::string& path() const { return path_; }
  double hz() const { return hz_; }

  ~Profiler();

 private:
  void watcher_loop();
  void sample_once(std::vector<std::shared_ptr<ProfiledThread>>& roster,
                   std::uint64_t& roster_seen);
  void fold_ring(ProfiledThread& entry);
  void fold_all_locked();

  std::atomic<bool> enabled_{false};
  std::atomic<bool> stop_requested_{false};
  std::string path_;
  double hz_ = kDefaultHz;
  std::thread watcher_;
  mutable std::mutex mutex_;  ///< guards threads_ (registration / merge)
  std::vector<std::shared_ptr<ProfiledThread>> threads_;
  /// Bumped by register_thread(); the watcher re-copies `threads_` (under
  /// the mutex) only when this moved, so a steady-state sampling tick costs
  /// one relaxed load instead of a lock plus shared_ptr traffic.
  std::atomic<std::uint64_t> roster_version_{0};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> torn_{0};
};

/// GEOPLACE_PROFILE grammar: "<path>[:hz]" — a trailing ":<number>" (> 0)
/// is the sampling rate, anything else is part of the path. Exposed for
/// tests.
struct ProfileEnvSpec {
  bool enabled = false;
  std::string path;
  double hz = Profiler::kDefaultHz;
};
ProfileEnvSpec parse_profile_env(const char* raw);

/// Shorthand for Profiler::global().enabled() — the gate Span checks.
inline bool profiling_enabled() { return Profiler::global().enabled(); }

/// Span-side hooks: push/pop the calling thread's SpanStack (registering
/// the thread with the profiler on first use). Call only when
/// profiling_enabled() was true at span construction.
void span_stack_push(const char* name);
void span_stack_pop();

/// The calling thread's SpanStack (registered on first use) — tests and
/// the Span hooks share this accessor.
SpanStack& local_span_stack();

}  // namespace gp::obs
