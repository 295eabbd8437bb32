#include "obs/timeline.hpp"

#include <fstream>
#include <mutex>
#include <sstream>

#include "common/json.hpp"
#include "obs/manifest.hpp"

namespace gp::obs {

namespace {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_switch("GEOPLACE_TIMELINE").enabled};
  return flag;
}

/// The frame fields in column order, by pointer-to-member — one table
/// drives the SoA scatter/gather and the export.
constexpr double TelemetryFrame::* kFields[] = {
#define GP_TIMELINE_MEMBER(name) &TelemetryFrame::name,
    GP_TIMELINE_COLUMNS(GP_TIMELINE_MEMBER)
#undef GP_TIMELINE_MEMBER
};
constexpr std::size_t kNumColumns = sizeof(kFields) / sizeof(kFields[0]);

}  // namespace

std::size_t timeline_num_columns() { return kNumColumns; }

const std::vector<std::string>& timeline_column_names() {
  static const std::vector<std::string> names = {
#define GP_TIMELINE_NAME(name) #name,
      GP_TIMELINE_COLUMNS(GP_TIMELINE_NAME)
#undef GP_TIMELINE_NAME
  };
  return names;
}

void write_timeline_jsonl(std::ostream& out, std::span<const TelemetryFrame> frames,
                          const RunManifest* manifest) {
  if (manifest != nullptr) out << manifest->to_jsonl_line() << "\n";
  const auto& names = timeline_column_names();
  out << "{\"type\":\"timeline\",\"frames\":" << frames.size()
      << ",\"columns\":" << json_array(names, json_quoted) << "}\n";
  for (std::size_t c = 0; c < kNumColumns; ++c) {
    const auto value = [c](const TelemetryFrame& frame) { return json_number(frame.*kFields[c]); };
    out << "{\"type\":\"timeline_col\",\"name\":" << json_quoted(names[c])
        << ",\"values\":" << json_array(frames, value) << "}\n";
  }
}

bool TimelineWriter::enabled() {
  return enabled_flag().load(std::memory_order_relaxed);
}

void TimelineWriter::set_enabled(bool enabled) {
  enabled_flag().store(enabled, std::memory_order_relaxed);
}

namespace {

std::string& dump_path_storage() {
  static std::string path = env_switch("GEOPLACE_TIMELINE").path;
  return path;
}

}  // namespace

const std::string& TimelineWriter::dump_path() { return dump_path_storage(); }

void TimelineWriter::set_dump_path(std::string path) {
  dump_path_storage() = std::move(path);
}

TimelineWriter& TimelineWriter::local() {
  thread_local TimelineWriter writer;
  return writer;
}

TimelineWriter::TimelineWriter(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

TimelineWriter::~TimelineWriter() {
  // See the header: frames committed since the last flush would otherwise
  // vanish when the process exits without reaching an explicit flush().
  // thread_local destructors run before static-storage destructors, so the
  // dump path and file mutex statics flush() uses are still alive here.
  if (count_ != flushed_count_) flush();
}

TelemetryFrame& TimelineWriter::begin(long long period, double utc_hour) {
  open_frame_ = TelemetryFrame{};
  open_frame_.period = static_cast<double>(period);
  open_frame_.utc_hour = utc_hour;
  open_ = true;
  return open_frame_;
}

void TimelineWriter::commit() {
  if (!open_) return;
  if (columns_.empty()) {
    // Lazy ring allocation on the thread's first commit (rule 3/4).
    columns_.assign(kNumColumns, std::vector<double>(capacity_, 0.0));
  }
  for (std::size_t c = 0; c < kNumColumns; ++c) {
    columns_[c][head_] = open_frame_.*kFields[c];
  }
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  ++count_;
  open_ = false;
}

void TimelineWriter::clear() {
  head_ = 0;
  count_ = 0;
  flushed_count_ = 0;
  open_ = false;
}

std::vector<TelemetryFrame> TimelineWriter::frames() const {
  const std::size_t retained = size();
  std::vector<TelemetryFrame> out(retained);
  // Oldest retained frame sits at head_ when the ring has wrapped, else 0.
  const std::size_t oldest = count_ >= capacity_ ? head_ : 0;
  for (std::size_t i = 0; i < retained; ++i) {
    const std::size_t slot = (oldest + i) % capacity_;
    for (std::size_t c = 0; c < kNumColumns; ++c) {
      out[i].*kFields[c] = columns_[c][slot];
    }
  }
  return out;
}

void TimelineWriter::write_jsonl(std::ostream& out, const RunManifest* manifest) const {
  const std::vector<TelemetryFrame> gathered = frames();
  write_timeline_jsonl(out, gathered, manifest);
}

void TimelineWriter::flush() const {
  // Commits up to here are covered whether or not anything is written below
  // (no path armed, nothing retained): the destructor must not retry them.
  flushed_count_ = count_;
  const std::string& path = dump_path();
  if (path.empty() || size() == 0) return;
  // Each flushed segment is self-describing (the acceptance artifact is
  // "manifest-headed"): capture provenance once per flush, i.e. per run.
  // The segment reaches the file in one write, so segments that other
  // processes append to the same file cannot split its lines.
  const RunManifest manifest = RunManifest::capture("timeline");
  std::ostringstream segment;
  write_jsonl(segment, &manifest);
  static std::mutex file_mutex;
  std::lock_guard<std::mutex> lock(file_mutex);
  std::ofstream out(path, std::ios::app);
  if (out) out << segment.str();
}

}  // namespace gp::obs
