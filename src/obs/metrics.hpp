// Thread-safe metrics registry: counters, gauges and fixed-bucket
// histograms with interpolated percentiles (p50/p95/p99).
//
// Design rules, in order:
//  1. Race-free under common/thread_pool. Every mutation is a relaxed
//     atomic operation (counter adds, gauge stores, histogram bucket
//     increments), so recording never takes a lock and the game's parallel
//     Jacobi rounds and the solvers' inner loops can record freely.
//     Registry LOOKUP takes a mutex; hot call sites look a metric up once
//     per solve/step (metrics are never removed, so references stay valid
//     for the registry's lifetime).
//  2. Near-zero overhead when disabled. Registry::enabled() is one relaxed
//     atomic load; instrumented call sites check it before touching the
//     registry, so an un-instrumented run pays a branch per solve, not per
//     iteration. The flag comes from the GEOPLACE_METRICS environment
//     variable (read once, at first Registry::global() use) or from
//     set_enabled().
//  3. Bounded memory. Histograms use FIXED log-spaced buckets — recording
//     is O(1), snapshots are O(buckets), and percentiles are interpolated
//     within the owning bucket, so the relative error is bounded by the
//     bucket ratio (10^(1/buckets_per_decade) - 1, ~15% at the default 16
//     buckets per decade). Exact percentiles belong to offline analysis of
//     the trace (tools/gp_report); the registry answers "what order of
//     magnitude, live, for free".
//
// GEOPLACE_METRICS values: unset/"0"/"false"/"off" — disabled;
// "1"/"true"/"on" — enabled; any other value — enabled AND the registry is
// dumped as JSONL to that path at process exit.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gp::obs {

/// Monotonically increasing event count. add() is a relaxed atomic
/// fetch-add: safe from any thread, never blocks.
class Counter {
 public:
  void add(long long delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  long long value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

/// Last-write-wins instantaneous value (e.g. rounds-to-equilibrium of the
/// most recent game run). set() is a relaxed atomic store.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bucket layout of a Histogram: an underflow bucket covering [0,
/// min_value), log-spaced buckets up to max_value, and an overflow bucket.
/// Negative samples clamp into the underflow bucket.
struct HistogramOptions {
  double min_value = 1e-3;    ///< lower edge of the first log bucket
  double max_value = 1e7;     ///< upper edge of the last log bucket
  int buckets_per_decade = 16;
};

/// The log-bucket geometry shared by the concurrent Histogram below and the
/// request path's single-writer per-pair latency sketches
/// (sim/request_path.hpp): bucket indexing, bucket edges, and interpolated
/// percentiles over ANY counts array with this layout. Keeping the math
/// here means the two consumers cannot drift — a percentile read from a
/// lane-local sketch and one read from a registry histogram with the same
/// options agree exactly.
class LogBucketLayout {
 public:
  explicit LogBucketLayout(HistogramOptions options = {});

  /// Total buckets including the underflow and overflow slots.
  std::size_t num_buckets() const { return num_buckets_; }

  /// Bucket index for a sample (0 = underflow incl. NaN/negatives,
  /// num_buckets()-1 = overflow). A sample in [min_value, max_value) lands in
  /// the bucket i with upper_edge(i-1) <= value < upper_edge(i). No
  /// transcendental call: the bucket is guessed from a table indexed by the
  /// sample's exponent and top mantissa bits (a cell no wider than 2^-8
  /// relative, so it spans at most one edge at <= 590 buckets per decade)
  /// and corrected by comparisons against the edge table.
  std::size_t bucket_of(double value) const {
    if (!(value >= options_.min_value)) return 0;  // underflow (incl. NaN, negatives)
    if (value >= options_.max_value) return num_buckets_ - 1;
    std::size_t index =
        guess_[(std::bit_cast<std::uint64_t>(value) >> kGuessShift) - guess_base_];
    while (value >= edges_[index]) ++index;
    return index;
  }

  /// Upper edge of bucket i (underflow edge = min_value; overflow = +inf):
  /// 10^(log10(min_value) + i / buckets_per_decade), precomputed. The last
  /// log bucket's edge is at least max_value.
  double upper_edge(std::size_t i) const { return edges_[std::min(i, num_buckets_ - 1)]; }

  /// Interpolated percentile over `buckets` (sized num_buckets()) holding
  /// `total` samples, p in [0, 100]; 0 when empty. The estimate is clamped
  /// to the exact observed [observed_min, observed_max] when those are
  /// finite, and the overflow bucket interpolates up to
  /// max(max_value, observed_max).
  double percentile(std::span<const long long> buckets, long long total, double p,
                    double observed_min, double observed_max) const;

  const HistogramOptions& options() const { return options_; }

 private:
  /// A guess-table key is the sample's sign, exponent and top 8 mantissa bits.
  static constexpr int kGuessShift = 44;

  HistogramOptions options_;
  std::size_t num_buckets_ = 0;
  std::vector<double> edges_;          // upper_edge(i), i < num_buckets_
  std::vector<std::uint32_t> guess_;   // bucket of each key cell's lowest in-range value
  std::uint64_t guess_base_ = 0;       // key of min_value
};

/// One consistent-enough read of a histogram (buckets are read without a
/// barrier, so a snapshot taken concurrently with recording may be off by
/// the in-flight samples — fine for reporting).
struct HistogramSnapshot {
  long long count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Fixed-bucket concurrent histogram (see file comment and
/// HistogramOptions). record() is wait-free per bucket; count/sum/min/max
/// are maintained exactly (CAS loops for the doubles).
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});

  void record(double value);

  long long count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;
  double max() const;

  /// Interpolated percentile, p in [0, 100]; 0 when empty. Accuracy is one
  /// bucket (see file comment); the result is clamped to the exact observed
  /// [min, max].
  double percentile(double p) const;

  HistogramSnapshot snapshot() const;
  void reset();

  const HistogramOptions& options() const { return layout_.options(); }

 private:
  LogBucketLayout layout_;
  std::vector<std::atomic<long long>> buckets_;
  std::atomic<long long> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;        // +inf when empty
  std::atomic<double> max_;        // -inf when empty
};

/// Named metric store (see file comment). One process-wide instance via
/// global(); tests may construct private registries.
class Registry {
 public:
  Registry() = default;

  /// The process-wide registry. On first use, reads GEOPLACE_METRICS to
  /// initialize the enabled flag (and the exit-dump path, if any). The
  /// exit dump happens from this object's destructor.
  static Registry& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

  /// Finds or creates the named metric. The reference stays valid for the
  /// registry's lifetime. Requesting an existing name with a different
  /// metric kind throws.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, HistogramOptions options = {});

  /// One JSON object per line per metric, sorted by name
  /// ({"type":"counter"|"gauge"|"histogram","name":...}, values read at call
  /// time, numbers at full precision): the body of the GEOPLACE_METRICS dump.
  void write_jsonl(std::ostream& out) const;

  /// Zeroes every registered metric (the metrics keep their identity, so
  /// cached references stay valid). For tests and benchmarks.
  void reset_values();

  /// reset_values() on the global registry — the one-liner tests and
  /// gp_replay use to isolate a measurement without constructing a private
  /// registry (which would invalidate references instrumented code caches).
  static void reset_all() { global().reset_values(); }

  ~Registry();

 private:
  std::atomic<bool> enabled_{false};
  std::string dump_path_;  // non-empty: write_jsonl here at destruction
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Shorthand for Registry::global().enabled() — the gate instrumented call
/// sites check before recording.
inline bool metrics_enabled() { return Registry::global().enabled(); }

}  // namespace gp::obs
