#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/manifest.hpp"

namespace gp::obs {

namespace {

/// CAS add for atomic doubles (no fetch_add for floating point pre-C++20
/// on all toolchains); relaxed is enough — readers only want the sum.
void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

// ----------------------------------------------------------- LogBucketLayout

LogBucketLayout::LogBucketLayout(HistogramOptions options) : options_(options) {
  require(options.min_value > 0.0, "Histogram: min_value must be > 0");
  require(options.max_value > options.min_value, "Histogram: max_value must be > min_value");
  require(options.buckets_per_decade >= 1, "Histogram: need >= 1 bucket per decade");
  const double log_min = std::log10(options.min_value);
  const auto per_decade = static_cast<double>(options.buckets_per_decade);
  num_buckets_ = static_cast<std::size_t>(
      2 + static_cast<int>(std::ceil((std::log10(options.max_value) - log_min) * per_decade)));

  edges_.resize(num_buckets_);
  edges_[0] = options.min_value;
  for (std::size_t i = 1; i + 1 < num_buckets_; ++i) {
    edges_[i] = std::pow(10.0, log_min + static_cast<double>(i) / per_decade);
  }
  // The ceil above puts the last log edge at or past max_value; pin it there
  // against pow's rounding so bucket_of's correction loop always stops on a
  // log bucket for in-range samples.
  edges_[num_buckets_ - 2] = std::max(edges_[num_buckets_ - 2], options.max_value);
  edges_[num_buckets_ - 1] = std::numeric_limits<double>::infinity();

  // One guess per key cell: the bucket of the cell's lowest in-range value.
  // Buckets only grow with the key, so one forward walk fills the table.
  guess_base_ = std::bit_cast<std::uint64_t>(options.min_value) >> kGuessShift;
  const std::uint64_t last_key = std::bit_cast<std::uint64_t>(options.max_value) >> kGuessShift;
  guess_.resize(last_key - guess_base_ + 1);
  std::size_t index = 1;
  for (std::uint64_t key = guess_base_; key <= last_key; ++key) {
    const double low =
        std::max(std::bit_cast<double>(key << kGuessShift), options.min_value);
    while (low >= edges_[index]) ++index;
    guess_[key - guess_base_] = static_cast<std::uint32_t>(index);
  }
}

double LogBucketLayout::percentile(std::span<const long long> buckets, long long total,
                                   double p, double observed_min, double observed_max) const {
  require(p >= 0.0 && p <= 100.0, "Histogram::percentile: p must be in [0, 100]");
  if (total <= 0) return 0.0;
  const double clamp_min = std::isfinite(observed_min) ? observed_min : 0.0;
  const double clamp_max = std::isfinite(observed_max) ? observed_max : 0.0;
  // Target rank in [1, total]; walk the cumulative counts to its bucket.
  const double rank = std::max(1.0, p / 100.0 * static_cast<double>(total));
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket <= 0.0) continue;
    if (cumulative + in_bucket >= rank) {
      // Linear interpolation within the bucket [lower, upper).
      const double lower = i == 0 ? 0.0 : upper_edge(i - 1);
      double upper = upper_edge(i);
      if (!std::isfinite(upper)) upper = std::max(options_.max_value, clamp_max);
      const double fraction = (rank - cumulative) / in_bucket;
      const double estimate = lower + fraction * (upper - lower);
      return std::clamp(estimate, clamp_min, clamp_max);
    }
    cumulative += in_bucket;
  }
  return clamp_max;  // racing recorders moved the total; the tail is the answer
}

// ----------------------------------------------------------------- Histogram

Histogram::Histogram(HistogramOptions options)
    : layout_(options),
      buckets_(layout_.num_buckets()),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void Histogram::record(double value) {
  buckets_[layout_.bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

double Histogram::min() const {
  const double value = min_.load(std::memory_order_relaxed);
  return std::isfinite(value) ? value : 0.0;
}

double Histogram::max() const {
  const double value = max_.load(std::memory_order_relaxed);
  return std::isfinite(value) ? value : 0.0;
}

double Histogram::percentile(double p) const {
  // Cold path (snapshots/reports): gather the atomic buckets into a plain
  // array and let the shared layout interpolate, exactly as it does for the
  // request path's single-writer sketches.
  std::vector<long long> counts(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return layout_.percentile(counts, count(), p, min_.load(std::memory_order_relaxed),
                            max_.load(std::memory_order_relaxed));
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.count = count();
  snap.sum = sum();
  snap.min = min();
  snap.max = max();
  snap.p50 = percentile(50.0);
  snap.p95 = percentile(95.0);
  snap.p99 = percentile(99.0);
  return snap;
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

// ------------------------------------------------------------------ Registry

Registry& Registry::global() {
  static Registry instance;
  static const bool initialized = [] {
    const EnvSwitch env = env_switch("GEOPLACE_METRICS");
    instance.set_enabled(env.enabled);
    instance.dump_path_ = env.path;
    return true;
  }();
  (void)initialized;
  return instance;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(gauges_.find(name) == gauges_.end() && histograms_.find(name) == histograms_.end(),
          "Registry: metric kind mismatch for " + std::string(name));
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(counters_.find(name) == counters_.end() &&
              histograms_.find(name) == histograms_.end(),
          "Registry: metric kind mismatch for " + std::string(name));
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name, HistogramOptions options) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(counters_.find(name) == counters_.end() && gauges_.find(name) == gauges_.end(),
          "Registry: metric kind mismatch for " + std::string(name));
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>(options)).first;
  }
  return *it->second;
}

void Registry::write_jsonl(std::ostream& out) const {
  // Name order across the three kinds (a name belongs to one kind only).
  std::map<std::string_view, std::string> lines;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, counter] : counters_) {
      lines[name] = "{\"type\":\"counter\",\"name\":" + json_quoted(name) +
                    ",\"value\":" + std::to_string(counter->value()) + "}";
    }
    for (const auto& [name, gauge] : gauges_) {
      lines[name] = "{\"type\":\"gauge\",\"name\":" + json_quoted(name) +
                    ",\"value\":" + json_number(gauge->value()) + "}";
    }
    for (const auto& [name, histogram] : histograms_) {
      const HistogramSnapshot h = histogram->snapshot();
      lines[name] = "{\"type\":\"histogram\",\"name\":" + json_quoted(name) +
                    ",\"count\":" + std::to_string(h.count) + ",\"sum\":" + json_number(h.sum) +
                    ",\"min\":" + json_number(h.min) + ",\"max\":" + json_number(h.max) +
                    ",\"p50\":" + json_number(h.p50) + ",\"p95\":" + json_number(h.p95) +
                    ",\"p99\":" + json_number(h.p99) + "}";
    }
  }
  for (const auto& [name, line] : lines) out << line << "\n";
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

Registry::~Registry() {
  if (dump_path_.empty()) return;
  std::ofstream out(dump_path_);
  if (!out) return;
  out << RunManifest::capture("registry").to_jsonl_line() << "\n";
  write_jsonl(out);
}

}  // namespace gp::obs
