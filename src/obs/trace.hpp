// Scoped trace spans and the process-wide trace sink.
//
// A Span is an RAII wall-clock timer: construction stamps the start,
// destruction (or close()) stamps the end and, when tracing is enabled,
// appends one event — with thread id, nesting depth and an optional numeric
// argument — to the global Tracer. Spans nest naturally (a thread-local
// depth counter), and are safe under common/thread_pool: the per-thread
// state is thread_local and the sink append takes a short mutex, paid once
// per span END (spans wrap whole solves/periods, not inner iterations).
//
// A Span ALWAYS measures time (two steady_clock reads, ~tens of ns) so call
// sites can reuse elapsed_ms() for registry histograms and summaries
// regardless of whether tracing is on; only the event emission is gated.
//
// The trace is the one record of span stacks: every closed span carries
// its thread id, start and duration, so nesting is recovered offline by
// interval containment per thread — tools/gp_report --flame folds a trace
// into a flamegraph weighted by each span's self time. Emission is gated
// on one relaxed atomic load, so an untraced run pays a single predictable
// branch per span.
//
// The tracer records spans only. Scalar trajectories (ADMM residuals, the
// game's per-round cost, per-period SLA and forecast error) live in the
// convergence recorder (obs/recorder.hpp), the metrics registry and the
// telemetry timeline (obs/timeline.hpp).
//
// Enabling: set GEOPLACE_TRACE=<path> before the process starts (read once,
// at first Tracer::global() use) or call start_tracing(). The buffered
// events are exported at stop_tracing() or at process exit as Chrome
// trace-event JSON, whatever the path's suffix (load it in
// https://ui.perfetto.dev or chrome://tracing; tools/gp_report prints its
// span table or, with --flame, draws its flamegraph). See
// write_chrome_trace below for the format.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace gp::obs {

/// One recorded event: a completed span.
struct TraceEvent {
  std::string name;
  double ts_us = 0.0;   ///< start time, microseconds since tracing began
  double dur_us = 0.0;  ///< span duration
  std::uint32_t tid = 0;
  std::int32_t depth = 0;
  double arg = 0.0;
  bool has_arg = false;
};

/// Process-wide trace sink (see file comment). Thread-safe.
class Tracer {
 public:
  /// The process-wide tracer; reads GEOPLACE_TRACE on first use. If
  /// tracing was armed by the environment, the destructor exports whatever
  /// was buffered (so a traced run needs no explicit stop_tracing()).
  static Tracer& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Starts buffering events; they are written to `path` at stop() (or
  /// process exit). Resets the clock epoch and drops any previously
  /// buffered events.
  void start(std::string path);

  /// Disables tracing and exports the buffer to the configured path
  /// (no-op when nothing was started and no environment path is armed).
  void stop();

  /// Appends a completed span. Called by Span; ignored when disabled.
  void record_span(const char* name, double ts_us, double dur_us, std::uint32_t tid,
                   std::int32_t depth, double arg, bool has_arg);

  /// A steady_clock time point expressed in microseconds since the epoch.
  double since_epoch_us(std::chrono::steady_clock::time_point tp) const;

  /// Copy of the buffered events (tests / exporters).
  std::vector<TraceEvent> events() const;

  /// Drops buffered events without exporting (tests).
  void discard();

  ~Tracer();

 private:
  void export_locked();  // caller holds mutex_

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::string path_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

/// RAII span (see file comment). Intended for automatic storage only.
class Span {
 public:
  explicit Span(const char* name);
  /// With a numeric argument (period index, provider id, ...) shown in the
  /// trace viewer.
  Span(const char* name, double arg);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Wall time since construction, in milliseconds. Valid whether or not
  /// tracing is enabled, before and after close().
  double elapsed_ms() const;

  /// Ends the span now (emits the event if tracing): the destructor
  /// becomes a no-op. Returns elapsed_ms() at the close.
  double close();

 private:
  const char* name_;
  double arg_;
  bool has_arg_;
  bool active_;  ///< tracing was on at construction: emit on close
  bool closed_ = false;
  std::int32_t depth_ = 0;
  std::chrono::steady_clock::time_point start_;
  double start_us_ = 0.0;
};

/// Programmatic equivalents of GEOPLACE_TRACE.
void start_tracing(const std::string& path);
void stop_tracing();

/// Shorthand for Tracer::global().enabled().
inline bool tracing_enabled() { return Tracer::global().enabled(); }

/// Stable small id of the calling thread (assigned on first use).
std::uint32_t current_thread_id();

struct RunManifest;

/// Writes the Chrome trace-event JSON array, one object per line: a
/// "process_name" metadata event, the optional RunManifest as a
/// "run_manifest" metadata event (so the artifact is self-describing), then
/// one complete event ("ph":"X") per span with ts and dur in microseconds,
/// pid 0 and the library's small thread ids as tids. Numbers are shortest
/// round-trip, so ts and dur read back bit-exact however long the run.
/// Registry metrics are not part of the trace; GEOPLACE_METRICS dumps them.
void write_chrome_trace(std::ostream& out, std::span<const TraceEvent> events,
                        const RunManifest* manifest = nullptr);

}  // namespace gp::obs
