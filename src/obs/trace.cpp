#include "obs/trace.hpp"

#include <cstdlib>
#include <fstream>
#include <ostream>

#include "common/json.hpp"
#include "obs/manifest.hpp"

namespace gp::obs {

namespace {

/// Thread-local nesting depth of ACTIVE spans on this thread.
thread_local std::int32_t t_span_depth = 0;

}  // namespace

std::uint32_t current_thread_id() {
  static std::atomic<std::uint32_t> next_id{0};
  thread_local const std::uint32_t id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// -------------------------------------------------------------------- Tracer

Tracer& Tracer::global() {
  static Tracer instance;
  static const bool initialized = [] {
    const char* raw = std::getenv("GEOPLACE_TRACE");
    if (raw != nullptr && raw[0] != '\0') {
      instance.start(raw);
    }
    return true;
  }();
  (void)initialized;
  return instance;
}

void Tracer::start(std::string path) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  path_ = std::move(path);
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  export_locked();
  events_.clear();
}

void Tracer::export_locked() {
  if (path_.empty() || events_.empty()) return;
  std::ofstream out(path_);
  if (!out) return;
  const RunManifest manifest = RunManifest::capture("trace");
  write_chrome_trace(out, events_, &manifest);
}

double Tracer::since_epoch_us(std::chrono::steady_clock::time_point tp) const {
  return std::chrono::duration<double, std::micro>(tp - epoch_).count();
}

void Tracer::record_span(const char* name, double ts_us, double dur_us, std::uint32_t tid,
                         std::int32_t depth, double arg, bool has_arg) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = name;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.tid = tid;
  event.depth = depth;
  event.arg = arg;
  event.has_arg = has_arg;
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void Tracer::discard() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

Tracer::~Tracer() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (enabled_.load(std::memory_order_relaxed)) export_locked();
}

// ---------------------------------------------------------------------- Span

Span::Span(const char* name) : Span(name, 0.0) { has_arg_ = false; }

Span::Span(const char* name, double arg)
    : name_(name),
      arg_(arg),
      has_arg_(true),
      active_(Tracer::global().enabled()),
      start_(std::chrono::steady_clock::now()) {
  if (active_) {
    depth_ = t_span_depth++;
    start_us_ = Tracer::global().since_epoch_us(start_);
  }
}

double Span::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
      .count();
}

double Span::close() {
  const double elapsed = elapsed_ms();
  if (closed_) return elapsed;
  closed_ = true;
  if (active_) {
    --t_span_depth;
    Tracer::global().record_span(name_, start_us_, elapsed * 1e3, current_thread_id(),
                                 depth_, arg_, has_arg_);
  }
  return elapsed;
}

Span::~Span() { close(); }

// ----------------------------------------------------------- free functions

void start_tracing(const std::string& path) { Tracer::global().start(path); }

void stop_tracing() { Tracer::global().stop(); }

void write_chrome_trace(std::ostream& out, std::span<const TraceEvent> events,
                        const RunManifest* manifest) {
  out << "[\n";
  out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
         "\"args\":{\"name\":\"geoplace\"}}";
  if (manifest != nullptr) {
    out << ",\n{\"ph\":\"M\",\"name\":\"run_manifest\",\"pid\":0,\"args\":"
        << manifest->to_json_object() << "}";
  }
  for (const TraceEvent& event : events) {
    out << ",\n";
    const auto dot = event.name.find('.');
    const std::string category =
        dot == std::string::npos ? std::string("misc") : event.name.substr(0, dot);
    out << "{\"ph\":\"X\",\"name\":" << json_quoted(event.name)
        << ",\"cat\":" << json_quoted(category) << ",\"ts\":" << json_number(event.ts_us)
        << ",\"dur\":" << json_number(event.dur_us) << ",\"pid\":0,\"tid\":" << event.tid;
    if (event.has_arg) out << ",\"args\":{\"arg\":" << json_number(event.arg) << "}";
    out << "}";
  }
  out << "\n]\n";
}

}  // namespace gp::obs
