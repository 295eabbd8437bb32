#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"

namespace gp::obs {

namespace {

/// Thread-exit hook: the shared_ptr keeps the entry (and its fold counts)
/// alive for the profiler to merge at stop(); `alive` tells the watcher to
/// stop snapshotting a stack whose owner is gone.
struct LocalStackHandle {
  std::shared_ptr<ProfiledThread> entry;
  LocalStackHandle() : entry(Profiler::global().register_thread()) {}
  ~LocalStackHandle() { entry->alive.store(false, std::memory_order_release); }
};

std::shared_ptr<ProfiledThread>& local_entry() {
  thread_local LocalStackHandle handle;
  return handle.entry;
}

}  // namespace

// ----------------------------------------------------------------- SpanStack

void SpanStack::push(const char* name) noexcept {
  const std::uint32_t d = depth_.load(std::memory_order_relaxed);
  version_.fetch_add(1, std::memory_order_acq_rel);  // odd: mutation in flight
  if (d < kMaxDepth) frames_[d].store(name, std::memory_order_relaxed);
  depth_.store(d + 1, std::memory_order_relaxed);
  version_.fetch_add(1, std::memory_order_acq_rel);  // even: stable again
}

void SpanStack::pop() noexcept {
  const std::uint32_t d = depth_.load(std::memory_order_relaxed);
  if (d == 0) return;  // defensive: unmatched pop
  version_.fetch_add(1, std::memory_order_acq_rel);
  depth_.store(d - 1, std::memory_order_relaxed);
  version_.fetch_add(1, std::memory_order_acq_rel);
}

bool SpanStack::snapshot(const char** frames, std::uint32_t& depth) const noexcept {
  const std::uint64_t before = version_.load(std::memory_order_acquire);
  if ((before & 1) != 0) return false;  // mid-mutation
  const std::uint32_t d =
      std::min<std::uint32_t>(depth_.load(std::memory_order_relaxed), kMaxDepth);
  for (std::uint32_t i = 0; i < d; ++i) {
    frames[i] = frames_[i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (version_.load(std::memory_order_relaxed) != before) return false;  // torn
  depth = d;
  return true;
}

// ------------------------------------------------------------------ Profiler

ProfileEnvSpec parse_profile_env(const char* raw) {
  ProfileEnvSpec spec;
  if (raw == nullptr || raw[0] == '\0') return spec;
  std::string value(raw);
  // A trailing ":<number>" is the sampling rate; a colon followed by
  // anything non-numeric (e.g. a Windows drive or an odd filename) stays
  // part of the path.
  const std::size_t colon = value.rfind(':');
  if (colon != std::string::npos && colon + 1 < value.size()) {
    const std::string suffix = value.substr(colon + 1);
    char* end = nullptr;
    const double hz = std::strtod(suffix.c_str(), &end);
    if (end != suffix.c_str() && *end == '\0' && hz > 0.0) {
      spec.hz = std::min(hz, Profiler::kMaxHz);
      value.resize(colon);
    }
  }
  if (value.empty()) return spec;
  spec.enabled = true;
  spec.path = std::move(value);
  return spec;
}

Profiler& Profiler::global() {
  // Touch the registry first: stop() captures a RunManifest and may run
  // from this object's destructor — the same static-ordering discipline
  // Tracer::global() applies.
  Registry::global();
  static Profiler instance;
  static const bool initialized = [] {
    const ProfileEnvSpec spec = parse_profile_env(std::getenv("GEOPLACE_PROFILE"));
    if (spec.enabled) instance.start(spec.path, spec.hz);
    return true;
  }();
  (void)initialized;
  return instance;
}

std::shared_ptr<ProfiledThread> Profiler::register_thread() {
  auto entry = std::make_shared<ProfiledThread>();
  std::lock_guard<std::mutex> lock(mutex_);
  threads_.push_back(entry);
  roster_version_.fetch_add(1, std::memory_order_release);
  return entry;
}

void Profiler::start(std::string path, double hz) {
  if (watcher_.joinable()) return;  // already running
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& entry : threads_) {
      entry->ring_count = 0;
      entry->folded.clear();
    }
  }
  samples_.store(0, std::memory_order_relaxed);
  torn_.store(0, std::memory_order_relaxed);
  path_ = std::move(path);
  hz_ = std::clamp(hz, 1.0, kMaxHz);
  stop_requested_.store(false, std::memory_order_release);
  enabled_.store(true, std::memory_order_relaxed);
  watcher_ = std::thread([this] { watcher_loop(); });
}

void Profiler::watcher_loop() {
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(1.0 / hz_));
  // Watcher-local roster cache: refreshed from threads_ only when
  // roster_version_ moves (thread registration is rare), so the
  // steady-state tick takes no lock and touches no refcounts.
  std::vector<std::shared_ptr<ProfiledThread>> roster;
  std::uint64_t roster_seen = static_cast<std::uint64_t>(-1);
  while (!stop_requested_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(interval);
    sample_once(roster, roster_seen);
  }
}

void Profiler::sample_once(std::vector<std::shared_ptr<ProfiledThread>>& roster,
                           std::uint64_t& roster_seen) {
  const std::uint64_t version = roster_version_.load(std::memory_order_acquire);
  if (version != roster_seen) {
    std::lock_guard<std::mutex> lock(mutex_);
    roster = threads_;
    roster_seen = version;
  }
  for (auto& entry : roster) {
    if (!entry->alive.load(std::memory_order_acquire)) continue;
    if (entry->ring.empty()) entry->ring.resize(ProfiledThread::kRingCapacity);
    ProfiledThread::RawSample& slot = entry->ring[entry->ring_count];
    if (!entry->stack.snapshot(slot.frames, slot.depth)) {
      torn_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    samples_.fetch_add(1, std::memory_order_relaxed);
    if (++entry->ring_count == entry->ring.size()) fold_ring(*entry);
  }
}

void Profiler::fold_ring(ProfiledThread& entry) {
  for (std::size_t i = 0; i < entry.ring_count; ++i) {
    const ProfiledThread::RawSample& sample = entry.ring[i];
    std::string key;
    if (sample.depth == 0) {
      key = "(idle)";  // registered but outside every span: attributed, not lost
    } else {
      for (std::uint32_t f = 0; f < sample.depth; ++f) {
        if (f > 0) key += ';';
        key += sample.frames[f];
      }
    }
    ++entry.folded[key];
  }
  entry.ring_count = 0;
}

void Profiler::fold_all_locked() {
  for (auto& entry : threads_) fold_ring(*entry);
}

void Profiler::stop() {
  enabled_.store(false, std::memory_order_relaxed);
  stop_requested_.store(true, std::memory_order_release);
  if (watcher_.joinable()) watcher_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  fold_all_locked();
  if (path_.empty()) return;
  std::ofstream out(path_);
  if (!out) return;
  out << RunManifest::capture("profile").to_jsonl_line() << "\n";
  // Merge per-thread folds inline (folded() would retake the mutex).
  std::map<std::string, std::uint64_t> merged;
  for (const auto& entry : threads_) {
    for (const auto& [stack, count] : entry->folded) merged[stack] += count;
  }
  for (const auto& [stack, count] : merged) out << stack << " " << count << "\n";
}

std::map<std::string, std::uint64_t> Profiler::folded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> merged;
  for (const auto& entry : threads_) {
    for (const auto& [stack, count] : entry->folded) merged[stack] += count;
  }
  return merged;
}

Profiler::~Profiler() { stop(); }

// ----------------------------------------------------------- span-side hooks

SpanStack& local_span_stack() { return local_entry()->stack; }

void span_stack_push(const char* name) { local_entry()->stack.push(name); }

void span_stack_pop() { local_entry()->stack.pop(); }

}  // namespace gp::obs
