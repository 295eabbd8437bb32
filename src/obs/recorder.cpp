#include "obs/recorder.hpp"

#include <fstream>
#include <mutex>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"  // current_thread_id for dump attribution

namespace gp::obs {

namespace {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_switch("GEOPLACE_RECORD").enabled};
  return flag;
}

}  // namespace

bool ConvergenceRecorder::enabled() {
  return enabled_flag().load(std::memory_order_relaxed);
}

void ConvergenceRecorder::set_enabled(bool enabled) {
  enabled_flag().store(enabled, std::memory_order_relaxed);
}

const std::string& ConvergenceRecorder::dump_path() {
  static const std::string path = env_switch("GEOPLACE_RECORD").path;
  return path;
}

ConvergenceRecorder& ConvergenceRecorder::local() {
  thread_local ConvergenceRecorder recorder;
  return recorder;
}

ConvergenceRecorder::ConvergenceRecorder(std::size_t capacity)
    : ring_(capacity > 0 ? capacity : 1) {}

void ConvergenceRecorder::push(const char* stream, long long step, double a, double b,
                               double c) {
  ConvergenceSample& slot = ring_[head_];
  slot.stream = stream;
  slot.step = step;
  slot.a = a;
  slot.b = b;
  slot.c = c;
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  ++count_;
}

void ConvergenceRecorder::clear() {
  head_ = 0;
  count_ = 0;
}

std::vector<ConvergenceSample> ConvergenceRecorder::tail(std::size_t max_samples) const {
  const std::size_t retained = size();
  const std::size_t take = retained < max_samples ? retained : max_samples;
  std::vector<ConvergenceSample> out;
  out.reserve(take);
  // Oldest retained sample sits at head_ when the ring has wrapped, else 0.
  const std::size_t oldest = count_ >= ring_.size() ? head_ : 0;
  for (std::size_t i = retained - take; i < retained; ++i) {
    out.push_back(ring_[(oldest + i) % ring_.size()]);
  }
  return out;
}

void ConvergenceRecorder::write_jsonl(std::ostream& out) const {
  for (const ConvergenceSample& sample : tail(capacity())) {
    out << "{\"type\":\"record\",\"stream\":" << json_quoted(sample.stream)
        << ",\"step\":" << sample.step << ",\"a\":" << json_number(sample.a)
        << ",\"b\":" << json_number(sample.b) << ",\"c\":" << json_number(sample.c) << "}\n";
  }
}

void ConvergenceRecorder::dump_failure(const char* reason) {
  const std::string& path = dump_path();
  if (path.empty()) return;
  const ConvergenceRecorder& recorder = local();
  // The dump reaches the file in one write, so dumps that other processes
  // append to the same file (a parallel test suite) cannot split its lines.
  std::ostringstream dump;
  dump << "{\"type\":\"record_dump\",\"reason\":" << json_quoted(reason)
       << ",\"tid\":" << current_thread_id() << ",\"samples\":" << recorder.size() << "}\n";
  recorder.write_jsonl(dump);
  static std::mutex file_mutex;
  std::lock_guard<std::mutex> lock(file_mutex);
  std::ofstream out(path, std::ios::app);
  if (out) out << dump.str();
}

}  // namespace gp::obs
