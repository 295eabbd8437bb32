#include "obs/audit.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace gp::obs::audit {

namespace {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_switch("GEOPLACE_AUDIT").enabled};
  return flag;
}

/// Thread-local violation table. Names are static literals, so entries
/// compare by pointer first and fall back to strcmp for literals that were
/// deduplicated differently across translation units.
struct ThreadTable {
  std::vector<std::pair<const char*, long long>> counts;
  long long total = 0;

  void bump(const char* name) {
    ++total;
    for (auto& [entry_name, count] : counts) {
      if (entry_name == name || std::strcmp(entry_name, name) == 0) {
        ++count;
        return;
      }
    }
    counts.emplace_back(name, 1);
  }
};

ThreadTable& table() {
  thread_local ThreadTable instance;
  return instance;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool value) { enabled_flag().store(value, std::memory_order_relaxed); }

bool check(const char* name, bool ok, double observed, double bound) {
  Registry& registry = Registry::global();
  registry.counter("obs.audit.checks").add();
  if (ok) return true;
  registry.counter(std::string("obs.audit.") + name).add();
  table().bump(name);
  if (recording_enabled()) {
    // Stream tag = the audit name itself (a static literal by contract), so
    // the ring tail shows which invariant broke, not just that one did.
    ConvergenceRecorder::local().push(name, table().total, observed, bound);
  }
  return false;
}

long long thread_violations() { return table().total; }

std::vector<std::pair<std::string, long long>> thread_counts() {
  std::vector<std::pair<std::string, long long>> out;
  out.reserve(table().counts.size());
  for (const auto& [name, count] : table().counts) out.emplace_back(name, count);
  std::sort(out.begin(), out.end());
  return out;
}

void reset_thread_counts() {
  table().counts.clear();
  table().total = 0;
}

}  // namespace gp::obs::audit
