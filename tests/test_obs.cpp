// Tests for geoplace::obs: the metrics registry (counters, gauges,
// log-bucket histograms), the trace spans/exporters, and the contract the
// instrumented layers rely on — concurrent recording from thread_pool lanes
// is race-free (run under the tsan preset via the "obs" label), bucketed
// percentiles track the scalar reference within the documented bucket
// error, the edge-table bucket lookup reproduces the closed-form log10
// index, and a disabled registry/tracer records nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "qp/admm_solver.hpp"
#include "qp/problem.hpp"
#include "scenario/registry.hpp"
#include "scenario/serialize.hpp"

namespace {

using gp::obs::Histogram;
using gp::obs::HistogramOptions;
using gp::obs::Registry;
using gp::obs::Span;
using gp::obs::TraceEvent;
using gp::obs::Tracer;

TEST(Counter, AddsAndResets) {
  gp::obs::Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42);
  counter.add(-2);
  EXPECT_EQ(counter.value(), 40);
  counter.reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(Gauge, LastWriteWins) {
  gp::obs::Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(3.5);
  gauge.set(-1.25);
  EXPECT_EQ(gauge.value(), -1.25);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(Histogram, ExactMoments) {
  Histogram h;
  for (double v : {1.0, 2.0, 4.0, 8.0}) h.record(v);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.percentile(50.0), 0.0);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.p99, 0.0);
}

TEST(Histogram, UnderflowAndOverflowClampToObservedRange) {
  Histogram h(HistogramOptions{.min_value = 1.0, .max_value = 100.0,
                               .buckets_per_decade = 4});
  h.record(-5.0);   // underflow (negative)
  h.record(0.01);   // underflow
  h.record(1e9);    // overflow
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  // Percentiles are clamped to the exact observed [min, max] even though
  // the owning buckets have infinite/degenerate edges.
  EXPECT_GE(h.percentile(1.0), -5.0);
  EXPECT_LE(h.percentile(99.9), 1e9);
}

TEST(Histogram, PercentileTracksScalarReferenceWithinBucketError) {
  // The documented accuracy bound: one bucket, i.e. a relative error of
  // 10^(1/buckets_per_decade) - 1 (~15.5% at the default 16/decade).
  const HistogramOptions options;  // defaults
  const double bucket_ratio = std::pow(10.0, 1.0 / options.buckets_per_decade);
  Histogram h(options);
  std::vector<double> values;
  // A skewed latency-like population spanning three decades.
  for (int i = 1; i <= 1000; ++i) {
    const double v = 0.05 * std::pow(1.01, i);  // 0.05 .. ~1047, geometric
    values.push_back(v);
    h.record(v);
  }
  for (double p : {10.0, 50.0, 90.0, 95.0, 99.0}) {
    const double exact = gp::percentile(values, p);
    const double approx = h.percentile(p);
    EXPECT_LE(approx, exact * bucket_ratio * 1.001) << "p" << p;
    EXPECT_GE(approx, exact / bucket_ratio * 0.999) << "p" << p;
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000);
  EXPECT_DOUBLE_EQ(snap.p50, h.percentile(50.0));
  EXPECT_DOUBLE_EQ(snap.p95, h.percentile(95.0));
  EXPECT_DOUBLE_EQ(snap.p99, h.percentile(99.0));
}

TEST(Histogram, ConcurrentRecordingIsExactForCountSumMinMax) {
  // thread_pool lanes hammer one histogram; count/sum/min/max are
  // maintained with atomics and must come out exact. Run under the tsan
  // preset (label "obs") this is also the data-race check.
  Histogram h;
  constexpr std::size_t kLanes = 8;
  constexpr int kPerLane = 5000;
  gp::parallel_for(0, kLanes, [&](std::size_t lane) {
    for (int i = 0; i < kPerLane; ++i) {
      h.record(static_cast<double>(lane + 1));  // lane k records value k+1
    }
  });
  EXPECT_EQ(h.count(), static_cast<long long>(kLanes * kPerLane));
  double expected_sum = 0.0;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    expected_sum += static_cast<double>((lane + 1) * kPerLane);
  }
  EXPECT_DOUBLE_EQ(h.sum(), expected_sum);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(kLanes));
}

TEST(RegistryTest, FindOrCreateReturnsStableReferences) {
  Registry registry;
  auto& c1 = registry.counter("a.count");
  auto& c2 = registry.counter("a.count");
  EXPECT_EQ(&c1, &c2);
  auto& h1 = registry.histogram("a.ms");
  auto& h2 = registry.histogram("a.ms");
  EXPECT_EQ(&h1, &h2);
  // Same name, different kind: a programming error, reported loudly.
  EXPECT_THROW(registry.gauge("a.count"), std::exception);
  EXPECT_THROW(registry.counter("a.ms"), std::exception);
}

TEST(RegistryTest, ResetAllZeroesGlobalWithoutInvalidatingReferences) {
  // reset_all() is the test/bench-friendly reset: values go to zero but
  // every previously handed-out reference stays valid and registered.
  auto& registry = Registry::global();
  auto& counter = registry.counter("resetall.count");
  auto& gauge = registry.gauge("resetall.gauge");
  auto& histogram = registry.histogram("resetall.ms");
  counter.add(5);
  gauge.set(2.5);
  histogram.record(1.0);
  Registry::reset_all();
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(&counter, &registry.counter("resetall.count"));
  EXPECT_EQ(&histogram, &registry.histogram("resetall.ms"));
}

TEST(RegistryTest, ConcurrentLookupAndUpdateFromPoolLanes) {
  // Runs on the GLOBAL registry — reset_all() gives the exact-count
  // assertions a clean slate without the fresh-registry workaround.
  auto& registry = Registry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  Registry::reset_all();
  constexpr std::size_t kLanes = 8;
  constexpr int kPerLane = 2000;
  gp::parallel_for(0, kLanes, [&](std::size_t lane) {
    // Mixed find-or-create + record, as the solvers do: lookup races are
    // covered by the registry mutex, updates by the metric atomics.
    auto& counter = registry.counter("shared.count");
    auto& histogram = registry.histogram("shared.ms");
    auto& own = registry.counter("lane." + std::to_string(lane));
    for (int i = 0; i < kPerLane; ++i) {
      counter.add(1);
      histogram.record(1.0);
      own.add(1);
    }
  });
  EXPECT_EQ(registry.counter("shared.count").value(),
            static_cast<long long>(kLanes * kPerLane));
  EXPECT_EQ(registry.histogram("shared.ms").count(),
            static_cast<long long>(kLanes * kPerLane));
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(registry.counter("lane." + std::to_string(lane)).value(), kPerLane);
  }
  Registry::reset_all();
  registry.set_enabled(was_enabled);
}

TEST(RegistryTest, RowsAndJsonlExport) {
  Registry registry;
  registry.counter("x.solves").add(3);
  registry.gauge("x.converged").set(1.0);
  registry.histogram("x.ms").record(2.0);
  std::ostringstream out;
  registry.write_jsonl(out);
  const std::string text = out.str();
  // One line per metric, sorted by name across the kinds.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  EXPECT_LT(text.find("x.converged"), text.find("x.ms"));
  EXPECT_LT(text.find("x.ms"), text.find("x.solves"));
  EXPECT_NE(text.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"x.solves\""), std::string::npos);
  EXPECT_NE(text.find("\"value\":3"), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(text.find("\"p95\""), std::string::npos);

  registry.reset_values();
  EXPECT_EQ(registry.counter("x.solves").value(), 0);
  EXPECT_EQ(registry.histogram("x.ms").count(), 0);
}

/// The dump line whose "name" is `name`, parsed.
std::string dump_line(const std::string& jsonl, const std::string& name) {
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (gp::JsonValue(line)["name"].as_string() == name) return line;
  }
  return {};
}

TEST(RegistryTest, DumpReadsBackBitExact) {
  Registry registry;
  registry.counter("big.count").add(123456789);
  registry.histogram("big.ms").record(1234567.891);
  registry.gauge("bad.gauge").set(std::numeric_limits<double>::quiet_NaN());
  std::ostringstream out;
  registry.write_jsonl(out);
  const std::string counter = dump_line(out.str(), "big.count");
  ASSERT_FALSE(counter.empty()) << out.str();
  EXPECT_EQ(gp::JsonValue(counter)["value"].as_number(), 123456789.0) << counter;
  const std::string histogram = dump_line(out.str(), "big.ms");
  ASSERT_FALSE(histogram.empty()) << out.str();
  EXPECT_EQ(gp::JsonValue(histogram)["sum"].as_number(), 1234567.891) << histogram;
  EXPECT_EQ(gp::JsonValue(histogram)["max"].as_number(), 1234567.891) << histogram;
  EXPECT_EQ(dump_line(out.str(), "bad.gauge"),
            "{\"type\":\"gauge\",\"name\":\"bad.gauge\",\"value\":null}");
}

TEST(RecorderTest, DumpWritesNullForNonFiniteSamples) {
  gp::obs::ConvergenceRecorder recorder(4);
  recorder.push("admm.residual", 7, std::numeric_limits<double>::quiet_NaN(),
                std::numeric_limits<double>::infinity(), 0.1 + 0.2);
  std::ostringstream out;
  recorder.write_jsonl(out);
  const std::string line = out.str();
  EXPECT_EQ(line,
            "{\"type\":\"record\",\"stream\":\"admm.residual\",\"step\":7,"
            "\"a\":null,\"b\":null,\"c\":0.30000000000000004}\n");
  const gp::JsonValue sample(line);
  EXPECT_TRUE(std::isnan(sample["a"].as_number()));
  EXPECT_EQ(sample["c"].as_number(), 0.1 + 0.2);
}

TEST(SerializeTest, ReplayBundleRoundTripsNonFiniteSamplesPathsAndControlBytes) {
  gp::scenario::ReplayBundle bundle;
  bundle.manifest = gp::obs::RunManifest::capture("test");
  bundle.manifest.trace_paths = {"C:\\runs\\t.json"};
  bundle.manifest.env.emplace_back("GEOPLACE_FAKE", "a\tb");
  bundle.scenario = gp::scenario::preset("paper_full");
  bundle.records.push_back({"admm.residual", 3, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(), 1.0 / 3.0});
  bundle.records.push_back({"admm.residual", 4, -std::numeric_limits<double>::infinity(),
                            123456789.0, 1e-310});

  const std::string json = gp::scenario::to_json(bundle);
  for (const char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  for (const char* token : {":nan", ":inf", ":-inf"}) {
    EXPECT_EQ(json.find(token), std::string::npos) << token << " in " << json;
  }
  const gp::scenario::ReplayBundle parsed = gp::scenario::bundle_from_json(json);
  EXPECT_EQ(gp::scenario::to_json(parsed), json);
  EXPECT_EQ(parsed.manifest.trace_paths, bundle.manifest.trace_paths);
  EXPECT_EQ(parsed.manifest.env, bundle.manifest.env);
  ASSERT_EQ(parsed.records.size(), 2u);
  // JSON has no inf: every non-finite sample reads back as NaN.
  EXPECT_TRUE(std::isnan(parsed.records[0].a));
  EXPECT_TRUE(std::isnan(parsed.records[0].b));
  EXPECT_TRUE(std::isnan(parsed.records[1].a));
  EXPECT_EQ(parsed.records[0].c, 1.0 / 3.0);
  EXPECT_EQ(parsed.records[1].b, 123456789.0);
  EXPECT_EQ(parsed.records[1].c, 1e-310);
}

TEST(SpanTest, MeasuresTimeWithTracingDisabled) {
  // Pin the flag: the suite may be running with GEOPLACE_TRACE armed (the
  // CI obs-on job does), and this test is about the disabled path.
  if (gp::obs::tracing_enabled()) gp::obs::stop_tracing();
  ASSERT_FALSE(gp::obs::tracing_enabled());
  const std::size_t before = Tracer::global().events().size();
  Span span("test.disabled");
  volatile double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
  EXPECT_GE(span.elapsed_ms(), 0.0);
  const double at_close = span.close();
  EXPECT_GE(at_close, 0.0);
  // No event emission when tracing is off.
  EXPECT_EQ(Tracer::global().events().size(), before);
}

TEST(SpanTest, NestedSpansRecordDepthAndOrder) {
  auto& tracer = Tracer::global();
  tracer.start("unused_span_depth.jsonl");
  {
    Span outer("test.outer");
    {
      Span inner("test.inner", 7.0);
    }
  }
  const std::vector<TraceEvent> events = tracer.events();
  tracer.discard();
  tracer.stop();
  std::remove("unused_span_depth.jsonl");

  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded at close, so the inner span lands first.
  EXPECT_EQ(events[0].name, "test.inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_TRUE(events[0].has_arg);
  EXPECT_EQ(events[0].arg, 7.0);
  EXPECT_EQ(events[1].name, "test.outer");
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_GE(events[1].dur_us, events[0].dur_us);
  EXPECT_LE(events[1].ts_us, events[0].ts_us);
}

TEST(SpanTest, ConcurrentSpansFromPoolLanesGetDistinctThreadIds) {
  auto& tracer = Tracer::global();
  tracer.start("unused_span_tids.jsonl");
  constexpr std::size_t kLanes = 4;
  gp::parallel_for(0, kLanes, [&](std::size_t lane) {
    Span span("test.lane", static_cast<double>(lane));
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
  });
  const std::vector<TraceEvent> events = tracer.events();
  tracer.discard();
  tracer.stop();
  std::remove("unused_span_tids.jsonl");

  ASSERT_EQ(events.size(), kLanes);
  std::vector<double> lanes_seen;
  for (const auto& event : events) {
    EXPECT_EQ(event.name, std::string("test.lane"));
    EXPECT_EQ(event.depth, 0);  // depth is per-thread, no cross-lane nesting
    lanes_seen.push_back(event.arg);
  }
  std::sort(lanes_seen.begin(), lanes_seen.end());
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(lanes_seen[lane], static_cast<double>(lane));
  }
}

TEST(ExportTest, ChromeTraceIsWellFormedJson) {
  std::vector<TraceEvent> events;
  events.push_back({"mod.solve", 10.0, 1500.0, 1, 0, 0.0, false});
  events.push_back({"mod.inner \"q\"", 20.0, 500.0, 1, 1, 3.0, true});
  std::ostringstream out;
  gp::obs::write_chrome_trace(out, events);
  const std::string text = out.str();
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"mod\""), std::string::npos);
  EXPECT_NE(text.find("\\\"q\\\""), std::string::npos);  // escaping
  EXPECT_NE(text.find("\"dur\":1500"), std::string::npos);
  // Trailing "]" closes the array.
  EXPECT_NE(text.rfind(']'), std::string::npos);
}

TEST(ExportTest, LongRunTimesReadBackBitExact) {
  // Past 1 s of trace time, six significant digits lose the microseconds:
  // the child 0.5 us after its parent would share the parent's ts.
  std::vector<TraceEvent> events;
  events.push_back({"mod.parent", 12345678.9, 2345678.25, 1, 0, 1234567.125, true});
  events.push_back({"mod.child", 12345679.4, 1000000.0, 1, 1, 0.0, false});
  std::ostringstream out;
  gp::obs::write_chrome_trace(out, events);
  const std::string text = out.str();
  const auto read_number = [&text](const std::string& key, std::size_t occurrence) {
    std::size_t at = 0;
    for (std::size_t k = 0; k <= occurrence; ++k) {
      at = text.find("\"" + key + "\":", at);
      if (at == std::string::npos) return std::nan("");
      at += key.size() + 3;
    }
    return std::strtod(text.c_str() + at, nullptr);
  };
  EXPECT_EQ(read_number("ts", 0), 12345678.9) << text;
  EXPECT_EQ(read_number("dur", 0), 2345678.25) << text;
  EXPECT_EQ(read_number("arg", 0), 1234567.125) << text;
  EXPECT_EQ(read_number("ts", 1), 12345679.4) << text;
}

TEST(ExportTest, JsonlRoundTripsThroughTheFile) {
  // A ".jsonl" path is still a valid trace path: the spans recorded while
  // tracing come back out of the file, with the run manifest beside them.
  const char* path = "test_obs_roundtrip.jsonl";
  gp::obs::start_tracing(path);
  {
    Span outer("roundtrip.outer");
    Span inner("roundtrip.inner", 2.0);
  }
  gp::obs::stop_tracing();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line, all;
  int spans = 0;
  while (std::getline(in, line)) {
    all += line + "\n";
    if (line.find("\"ph\":\"X\"") != std::string::npos &&
        line.find("\"name\":\"roundtrip.") != std::string::npos) {
      ++spans;
    }
  }
  in.close();
  std::remove(path);
  EXPECT_EQ(spans, 2) << all;
  EXPECT_NE(all.find("\"name\":\"run_manifest\""), std::string::npos) << all;
  EXPECT_NE(all.find("\"args\":{\"arg\":2}"), std::string::npos) << all;
}

TEST(ExportTest, PathExtensionSelectsChromeVersusJsonl) {
  // The suffix selects nothing: ".jsonl", ".json" and no suffix all get the
  // Chrome array with the run manifest as a metadata event and one complete
  // event per span, and never a JSONL line.
  for (const char* path : {"test_obs_fmt.jsonl", "test_obs_fmt.json", "test_obs_fmt"}) {
    gp::obs::start_tracing(path);
    {
      Span outer("fmt.outer");
      Span inner("fmt.inner", 2.0);
    }
    gp::obs::stop_tracing();
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    in.close();
    std::remove(path);
    const std::string text = buffer.str();
    EXPECT_TRUE(text.starts_with("[\n")) << path;
    EXPECT_TRUE(text.ends_with("\n]\n")) << path;
    EXPECT_NE(text.find("\"name\":\"run_manifest\""), std::string::npos) << path;
    EXPECT_NE(text.find("\"git_sha\""), std::string::npos) << path;
    for (const char* span : {"fmt.outer", "fmt.inner"}) {
      EXPECT_NE(text.find("{\"ph\":\"X\",\"name\":\"" + std::string(span) + "\""),
                std::string::npos)
          << path << " " << span;
    }
    EXPECT_EQ(text.find("\"type\":"), std::string::npos) << path;  // no JSONL lines
  }
}

TEST(ManifestTest, CaptureCarriesProvenanceAndEscapes) {
  gp::obs::RunManifest manifest = gp::obs::RunManifest::capture("test");
  EXPECT_EQ(manifest.tool, "test");
  EXPECT_FALSE(manifest.git_sha.empty());
  EXPECT_GE(manifest.threads, 1u);
  manifest.seeds = {1, 2};
  manifest.spec_hash = "00ff";
  manifest.trace_paths = {"a\"b"};
  const std::string line = manifest.to_jsonl_line();
  EXPECT_TRUE(gp::obs::is_manifest_line(line));
  EXPECT_NE(line.find("\"seeds\":[1,2]"), std::string::npos);
  EXPECT_NE(line.find("\"spec_hash\":\"00ff\""), std::string::npos);
  EXPECT_NE(line.find("a\\\"b"), std::string::npos);  // quote escaping
  EXPECT_EQ(gp::obs::strip_manifest_lines(line + "\n{\"x\":1}\n"), "{\"x\":1}\n");
}

TEST(ManifestTest, FromJsonInvertsToJsonObject) {
  gp::obs::RunManifest manifest = gp::obs::RunManifest::capture("test");
  manifest.seeds = {1, 18446744073709551615ULL};
  manifest.spec_hash = "00ff";
  manifest.trace_paths = {"a\"b", "C:\\t.csv"};
  manifest.env.emplace_back("GEOPLACE_X", "line\nbreak");
  const std::string object = manifest.to_json_object();
  EXPECT_EQ(gp::obs::RunManifest::from_json(object).to_json_object(), object);
  EXPECT_EQ(gp::obs::RunManifest::from_json(manifest.to_jsonl_line()).to_json_object(), object);

  // Schema 1 had no "simd".
  std::string schema1 = object;
  const std::string simd = ",\"simd\":" + gp::json_quoted(manifest.simd);
  ASSERT_NE(schema1.find(simd), std::string::npos);
  schema1.erase(schema1.find(simd), simd.size());
  EXPECT_TRUE(gp::obs::RunManifest::from_json(schema1).simd.empty());
  EXPECT_THROW(gp::obs::RunManifest::from_json("{\"schema\":2}"), gp::PreconditionError);
}

TEST(ManifestTest, EnvSwitchGrammar) {
  // A scratch name outside GEOPLACE_*, so later manifests in this binary do
  // not capture it.
  const char* name = "GP_TEST_ENV_SWITCH";
  ::unsetenv(name);
  gp::obs::EnvSwitch got = gp::obs::env_switch(name);
  EXPECT_FALSE(got.enabled);
  EXPECT_TRUE(got.path.empty());
  for (const char* off : {"", "0", "false", "off"}) {
    ::setenv(name, off, /*overwrite=*/1);
    got = gp::obs::env_switch(name);
    EXPECT_FALSE(got.enabled) << "'" << off << "'";
    EXPECT_TRUE(got.path.empty()) << "'" << off << "'";
  }
  for (const char* on : {"1", "true", "on"}) {
    ::setenv(name, on, /*overwrite=*/1);
    got = gp::obs::env_switch(name);
    EXPECT_TRUE(got.enabled) << on;
    EXPECT_TRUE(got.path.empty()) << on;
  }
  ::setenv(name, "out/metrics.jsonl", /*overwrite=*/1);
  got = gp::obs::env_switch(name);
  EXPECT_TRUE(got.enabled);
  EXPECT_EQ(got.path, "out/metrics.jsonl");
  ::unsetenv(name);
}

TEST(SolveInfoTest, AdmmExportsHotLoopCountersToGlobalRegistry) {
  // The solver mirrors SolveInfo::hot_loop_allocations and
  // ::residual_spmv_ns into the global registry as admm.allocs /
  // admm.spmv_ns when it is enabled. This binary installs no operator-new
  // hooks, so the alloc counter must be exactly zero; the SpMV timer runs
  // off the wall clock and must be populated (timing is only collected
  // while the registry is enabled).
  gp::qp::QpProblem problem;
  problem.p = gp::linalg::SparseMatrix::identity(2);
  problem.q = {1.0, 1.0};
  problem.a = gp::linalg::SparseMatrix::from_triplets(1, 2, {{0, 0, 1.0}, {0, 1, 1.0}});
  problem.lower = {1.0};
  problem.upper = {1.0};

  auto& registry = Registry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  Registry::reset_all();

  gp::qp::AdmmSolver solver;
  const auto result = solver.solve(problem);
  registry.set_enabled(was_enabled);

  ASSERT_EQ(result.status, gp::qp::SolveStatus::kOptimal);
  EXPECT_EQ(registry.counter("admm.allocs").value(), result.info.hot_loop_allocations);
  EXPECT_EQ(result.info.hot_loop_allocations, 0);
  EXPECT_EQ(registry.counter("admm.spmv_ns").value(), result.info.residual_spmv_ns);
  EXPECT_GT(result.info.residual_spmv_ns, 0);
}

TEST(SolveInfoTest, AdmmPopulatesFactorizationAndCacheFields) {
  // Two structurally identical QPs solved through one caching solver: the
  // first solve factors from scratch (cache_hits == 0), the second reuses
  // the cached scaling/ordering/symbolic analysis (cache_hits == 1). A
  // third solve with IDENTICAL data skips factorization outright.
  gp::qp::QpProblem problem;
  problem.p = gp::linalg::SparseMatrix::identity(2);
  problem.q = {1.0, 1.0};
  problem.a = gp::linalg::SparseMatrix::from_triplets(1, 2, {{0, 0, 1.0}, {0, 1, 1.0}});
  problem.lower = {1.0};
  problem.upper = {1.0};

  gp::qp::AdmmSettings settings;
  settings.cache_structure = true;
  gp::qp::AdmmSolver solver(settings);

  const auto first = solver.solve(problem);
  EXPECT_EQ(first.status, gp::qp::SolveStatus::kOptimal);
  EXPECT_EQ(first.info.cache_hits, 0);
  EXPECT_GE(first.info.factorizations, 1);
  EXPECT_FALSE(first.info.factorization_skipped);

  // Same pattern, new KKT values (q alone would leave the KKT matrix
  // untouched and take the factorization-skip path instead).
  problem.p = gp::linalg::SparseMatrix::identity(2, 2.0);
  problem.q = {2.0, 0.5};
  const auto second = solver.solve(problem);
  EXPECT_EQ(second.status, gp::qp::SolveStatus::kOptimal);
  EXPECT_EQ(second.info.cache_hits, 1);
  EXPECT_GE(second.info.factorizations, 1);
  EXPECT_FALSE(second.info.factorization_skipped);

  const auto third = solver.solve(problem);  // identical data
  EXPECT_EQ(third.status, gp::qp::SolveStatus::kOptimal);
  EXPECT_EQ(third.info.cache_hits, 1);
  EXPECT_TRUE(third.info.factorization_skipped);
  EXPECT_EQ(third.info.factorizations, 0);
}

// ---------------------------------------------------- percentile property

// The provable accuracy contract of Histogram::percentile at percentile p
// over n samples: the estimate interpolates inside the bucket holding the
// order statistic x_(ceil(max(1, p/100*n))), then clamps to the exact
// observed [min, max]. So for an interior x_j the estimate lies within one
// bucket ratio r = 10^(1/buckets_per_decade) of x_j; when x_j underflows
// the estimate is capped by min_value, and when it overflows it is at
// least max_value (each still clamped to the observed range).
void expect_percentile_within_bucket_error(const Histogram& h,
                                           const std::vector<double>& sorted, double p) {
  ASSERT_FALSE(sorted.empty());
  const HistogramOptions& options = h.options();
  const double r = std::pow(10.0, 1.0 / options.buckets_per_decade);
  const double n = static_cast<double>(sorted.size());
  const double rank = std::max(1.0, p / 100.0 * n);
  const std::size_t j =
      std::min(sorted.size(), static_cast<std::size_t>(std::ceil(rank - 1e-9)));
  const double xj = sorted[j - 1];
  const double estimate = h.percentile(p);
  const double exact = gp::percentile(sorted, p);

  // Always inside the exact observed range (the clamp).
  EXPECT_GE(estimate, sorted.front() - 1e-12) << "p" << p;
  EXPECT_LE(estimate, sorted.back() + 1e-12) << "p" << p;

  if (xj < options.min_value) {
    // Underflow bucket [0, min_value): the estimate cannot exceed its edge.
    EXPECT_LE(estimate, options.min_value * (1.0 + 1e-12)) << "p" << p;
  } else if (xj >= options.max_value) {
    // Overflow bucket [max_value, max]: the estimate starts at its edge.
    EXPECT_GE(estimate, options.max_value * (1.0 - 1e-12)) << "p" << p;
  } else {
    EXPECT_GE(estimate, xj / r * (1.0 - 1e-9)) << "p" << p << " xj " << xj;
    EXPECT_LE(estimate, xj * r * (1.0 + 1e-9)) << "p" << p << " xj " << xj;
    // ... which also pins it within one bucket ratio of the interpolated
    // exact percentile's bracketing order statistics.
    EXPECT_GE(estimate, std::min(xj, exact) / r * (1.0 - 1e-9)) << "p" << p;
    EXPECT_LE(estimate, std::max(xj, exact) * r * (1.0 + 1e-9)) << "p" << p;
  }
}

constexpr double kPercentiles[] = {0.0, 1.0, 10.0, 25.0, 50.0,
                                   75.0, 90.0, 95.0, 99.0, 99.9, 100.0};

/// Deterministic LCG in [0, 1) (no global RNG state in tests).
struct Lcg {
  std::uint64_t state;
  double next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) / 9007199254740992.0;
  }
};

TEST(Histogram, PropertyRandomSamplesStayWithinBucketError) {
  // Log-uniform populations over several option shapes, including a coarse
  // 4-buckets-per-decade layout (worst documented error ~78%) and a narrow
  // [1, 10] range that pushes most samples into the underflow/overflow
  // buckets.
  const HistogramOptions shapes[] = {
      {},                     // defaults: [1e-3, 1e7], 16 per decade
      {1e-3, 1e7, 4},         // coarse buckets
      {1.0, 10.0, 16},        // narrow range: heavy under/overflow
  };
  for (const auto& options : shapes) {
    Histogram h(options);
    Lcg rng{12345};
    std::vector<double> sorted;
    for (int i = 0; i < 2000; ++i) {
      const double v = std::pow(10.0, rng.next() * 8.0 - 4.0);  // 1e-4 .. 1e4
      h.record(v);
      sorted.push_back(v);
    }
    std::sort(sorted.begin(), sorted.end());
    for (double p : kPercentiles) expect_percentile_within_bucket_error(h, sorted, p);
  }
}

TEST(Histogram, PropertySingleSampleIsExactAtEveryPercentile) {
  // count == 1: every percentile clamps to the one observed value.
  for (double v : {3.7, 1e-6, 0.0, -2.5, 1e9}) {
    Histogram h;
    h.record(v);
    for (double p : kPercentiles) {
      EXPECT_DOUBLE_EQ(h.percentile(p), v) << "p" << p << " v " << v;
    }
  }
}

TEST(Histogram, PropertyConstantSamplesAreExact) {
  // All-equal samples: min == max, so the clamp makes every percentile
  // exact regardless of which bucket the value hashed into.
  Histogram h;
  std::vector<double> sorted(100, 0.42);
  for (double v : sorted) h.record(v);
  for (double p : kPercentiles) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 0.42);
    expect_percentile_within_bucket_error(h, sorted, p);
  }
}

TEST(Histogram, PropertyUnderflowAndOverflowEdges) {
  const HistogramOptions options{1.0, 100.0, 8};

  // Entirely below min_value (zeros and negatives clamp there too): the
  // estimate lives in [observed min, min_value].
  Histogram low(options);
  std::vector<double> low_sorted = {-3.0, 0.0, 0.01, 0.2, 0.5};
  for (double v : low_sorted) low.record(v);
  for (double p : kPercentiles) {
    expect_percentile_within_bucket_error(low, low_sorted, p);
    EXPECT_LE(low.percentile(p), options.min_value);
    EXPECT_GE(low.percentile(p), -3.0);
  }

  // Entirely at/above max_value: the estimate lives in [max_value, max].
  Histogram high(options);
  std::vector<double> high_sorted = {100.0, 500.0, 1e4, 2e6};
  for (double v : high_sorted) high.record(v);
  for (double p : kPercentiles) {
    expect_percentile_within_bucket_error(high, high_sorted, p);
    EXPECT_GE(high.percentile(p), options.max_value);
    EXPECT_LE(high.percentile(p), 2e6);
  }

  // A mixed population crossing both edges.
  Histogram mixed(options);
  Lcg rng{777};
  std::vector<double> mixed_sorted;
  for (int i = 0; i < 500; ++i) {
    const double v = std::pow(10.0, rng.next() * 8.0 - 4.0);  // 1e-4 .. 1e4
    mixed.record(v);
    mixed_sorted.push_back(v);
  }
  std::sort(mixed_sorted.begin(), mixed_sorted.end());
  for (double p : kPercentiles) {
    expect_percentile_within_bucket_error(mixed, mixed_sorted, p);
  }
}

// ------------------------------------------------------- bucket geometry

/// The closed-form bucket index LogBucketLayout used before its edge table:
/// kept here as the reference the table must reproduce.
std::size_t log10_bucket(const HistogramOptions& options, std::size_t num_buckets,
                         double value) {
  if (!(value >= options.min_value)) return 0;
  if (value >= options.max_value) return num_buckets - 1;
  const double position = (std::log10(value) - std::log10(options.min_value)) *
                          static_cast<double>(options.buckets_per_decade);
  return std::min(static_cast<std::size_t>(position) + 1, num_buckets - 2);
}

const HistogramOptions kBucketShapes[] = {
    {},                  // registry defaults: [1e-3, 1e7], 16 per decade
    {1e-2, 1e6, 64},     // the request path's latency sketch
    {1e-3, 1e7, 4},      // coarse
    {1.0, 10.0, 16},     // one decade
    {1.0, 1e3, 1000},    // buckets narrower than a guess cell: multi-step correction
};

TEST(LogBucketLayout, EverySampleLandsBetweenItsBucketEdges) {
  for (const auto& options : kBucketShapes) {
    const gp::obs::LogBucketLayout layout(options);
    const std::size_t last = layout.num_buckets() - 1;
    Lcg rng{2024};
    for (int k = 0; k < 200000; ++k) {
      const double span = std::log10(options.max_value / options.min_value);
      const double v = options.min_value * std::pow(10.0, rng.next() * span);
      const std::size_t i = layout.bucket_of(v);
      if (v >= options.max_value) {
        EXPECT_EQ(i, last);
        continue;
      }
      ASSERT_GE(i, 1u) << "v=" << v;
      ASSERT_LT(i, last) << "v=" << v;
      EXPECT_GE(v, layout.upper_edge(i - 1)) << "v=" << v << " bucket " << i;
      EXPECT_LT(v, layout.upper_edge(i)) << "v=" << v << " bucket " << i;
    }
    // Exactly on an edge opens the next bucket; one ulp below stays put.
    for (std::size_t i = 0; i + 2 < last; ++i) {
      const double edge = layout.upper_edge(i);
      EXPECT_EQ(layout.bucket_of(edge), i + 1) << "edge " << i;
      if (i > 0) {
        EXPECT_EQ(layout.bucket_of(std::nextafter(edge, 0.0)), i) << "edge " << i;
      }
    }
  }
}

TEST(LogBucketLayout, UnderflowOverflowNanAndNegativesUnchanged) {
  for (const auto& options : kBucketShapes) {
    const gp::obs::LogBucketLayout layout(options);
    const std::size_t last = layout.num_buckets() - 1;
    const double inf = std::numeric_limits<double>::infinity();
    for (const double v : {0.0, -0.0, -1.0, -inf, std::nan(""),
                           std::nextafter(options.min_value, 0.0)}) {
      EXPECT_EQ(layout.bucket_of(v), 0u) << "v=" << v;
    }
    EXPECT_EQ(layout.bucket_of(options.min_value), 1u);
    for (const double v : {options.max_value, inf, 1e300}) {
      EXPECT_EQ(layout.bucket_of(v), last) << "v=" << v;
    }
    EXPECT_EQ(layout.bucket_of(std::nextafter(options.max_value, 0.0)), last - 1);
    EXPECT_EQ(layout.upper_edge(0), options.min_value);
    EXPECT_EQ(layout.upper_edge(last), inf);
    EXPECT_GE(layout.upper_edge(last - 1), options.max_value);
  }
}

TEST(LogBucketLayout, AgreesWithLog10FormulaAwayFromEdges) {
  // 1e6 log-uniform samples on the sketch geometry (and 2e5 on each other
  // shape), spanning a decade of underflow and overflow. The edge table may
  // disagree with the log10 formula only for a sample within 1 ulp of an
  // edge, where log10's own rounding decides the formula's answer.
  for (const auto& options : kBucketShapes) {
    const gp::obs::LogBucketLayout layout(options);
    const int samples = options.buckets_per_decade == 64 ? 1000000 : 200000;
    const double lo = std::log10(options.min_value) - 1.0;
    const double hi = std::log10(options.max_value) + 1.0;
    Lcg rng{99};
    int near_edge = 0;
    for (int k = 0; k < samples; ++k) {
      const double v = std::pow(10.0, lo + rng.next() * (hi - lo));
      const std::size_t table = layout.bucket_of(v);
      const std::size_t formula = log10_bucket(options, layout.num_buckets(), v);
      if (table == formula) continue;
      ++near_edge;
      const double edge = layout.upper_edge(std::min(table, formula));
      EXPECT_LE(std::abs(v - edge), std::nextafter(edge, 2.0 * edge) - edge)
          << "v=" << v << " table " << table << " formula " << formula;
    }
    EXPECT_LE(near_edge, 2) << "buckets_per_decade " << options.buckets_per_decade;
  }
}

TEST(Registry, HistogramSnapshotTracksExactPercentiles) {
  // The registry path (named histogram + snapshot p50/p95/p99) obeys the
  // same bound as a standalone Histogram.
  auto& h = Registry::global().histogram("test.percentile_property");
  h.reset();
  Lcg rng{4242};
  std::vector<double> sorted;
  for (int i = 0; i < 1000; ++i) {
    const double v = std::pow(10.0, rng.next() * 6.0 - 3.0);  // 1e-3 .. 1e3
    h.record(v);
    sorted.push_back(v);
  }
  std::sort(sorted.begin(), sorted.end());
  for (double p : {50.0, 95.0, 99.0}) {
    expect_percentile_within_bucket_error(h, sorted, p);
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000);
  EXPECT_DOUBLE_EQ(snap.p50, h.percentile(50.0));
  EXPECT_DOUBLE_EQ(snap.p95, h.percentile(95.0));
  EXPECT_DOUBLE_EQ(snap.p99, h.percentile(99.0));
  h.reset();
}

// ------------------------------------------------------------- timeline

using gp::obs::TelemetryFrame;
using gp::obs::TimelineWriter;

TEST(TimelineWriter, RingWrapsAndGathersOldestFirst) {
  TimelineWriter writer(4);
  EXPECT_EQ(writer.capacity(), 4u);
  for (int k = 0; k < 10; ++k) {
    TelemetryFrame& frame = writer.begin(k, 0.5 * k);
    frame.demand_total = 100.0 + k;
    writer.commit();
  }
  EXPECT_EQ(writer.size(), 4u);
  EXPECT_EQ(writer.total_committed(), 10);
  const auto frames = writer.frames();
  ASSERT_EQ(frames.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(frames[i].period, 6.0 + i);  // oldest retained first
    EXPECT_DOUBLE_EQ(frames[i].utc_hour, 0.5 * (6 + i));
    EXPECT_DOUBLE_EQ(frames[i].demand_total, 106.0 + i);
  }
  writer.clear();
  EXPECT_EQ(writer.size(), 0u);
  EXPECT_TRUE(writer.frames().empty());
}

TEST(TimelineWriter, BeginReplacesOpenFrameAndCommitCloses) {
  TimelineWriter writer(8);
  EXPECT_EQ(writer.current(), nullptr);
  writer.begin(0, 0.0).cost_resource = 1.0;
  writer.begin(1, 0.5).cost_resource = 2.0;  // discards the un-committed 0
  ASSERT_NE(writer.current(), nullptr);
  writer.commit();
  EXPECT_EQ(writer.current(), nullptr);
  writer.commit();  // no open frame: no-op
  const auto frames = writer.frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_DOUBLE_EQ(frames[0].period, 1.0);
  EXPECT_DOUBLE_EQ(frames[0].cost_resource, 2.0);
}

TEST(TimelineWriter, ColumnarJsonlExportIsSelfDescribing) {
  TimelineWriter writer(8);
  writer.begin(0, 0.0).cost_resource = 12.5;
  writer.commit();
  TelemetryFrame& second = writer.begin(1, 0.5);
  second.cost_resource = 0.1;
  second.mean_latency_ms = std::nan("");
  writer.commit();

  std::ostringstream out;
  gp::obs::RunManifest manifest;
  manifest.tool = "timeline";
  manifest.git_sha = "deadbeef";
  writer.write_jsonl(out, &manifest);

  std::istringstream in(out.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  // manifest + segment header + one line per column.
  ASSERT_EQ(lines.size(), 2 + gp::obs::timeline_num_columns());
  EXPECT_NE(lines[0].find("\"type\":\"manifest\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"timeline\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"frames\":2"), std::string::npos);
  for (const std::string& name : gp::obs::timeline_column_names()) {
    EXPECT_NE(lines[1].find("\"" + name + "\""), std::string::npos) << name;
  }
  bool saw_cost = false, saw_latency = false;
  for (std::size_t i = 2; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"type\":\"timeline_col\""), std::string::npos);
    if (lines[i].find("\"name\":\"cost_resource\"") != std::string::npos) {
      saw_cost = true;
      EXPECT_NE(lines[i].find("[12.5,0.1]"), std::string::npos) << lines[i];
    }
    if (lines[i].find("\"name\":\"mean_latency_ms\"") != std::string::npos) {
      saw_latency = true;
      // Non-finite doubles are null (JSON has no NaN).
      EXPECT_NE(lines[i].find("[0,null]"), std::string::npos) << lines[i];
    }
  }
  EXPECT_TRUE(saw_cost);
  EXPECT_TRUE(saw_latency);
}

namespace {

std::string read_whole_file(const char* path) {
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

}  // namespace

TEST(TimelineWriter, DestructorFlushesFramesLeftUnflushed) {
  // Regression: a process that exits without reaching the engine's explicit
  // end-of-run flush used to silently drop every committed frame. The
  // destructor must now give dump-at-exit parity with GEOPLACE_METRICS.
  const std::string previous_path = TimelineWriter::dump_path();
  const char* path = "test_obs_timeline_exit.jsonl";
  std::remove(path);
  TimelineWriter::set_dump_path(path);

  {
    TimelineWriter writer(8);
    for (int k = 0; k < 3; ++k) {
      writer.begin(k, 0.5 * k).cost_resource = 1.0 + k;
      writer.commit();
    }
  }  // no explicit flush(): the destructor must write the segment

  const std::string first = read_whole_file(path);
  EXPECT_NE(first.find("\"type\":\"manifest\""), std::string::npos);
  EXPECT_NE(first.find("\"type\":\"timeline\""), std::string::npos);
  EXPECT_NE(first.find("\"frames\":3"), std::string::npos);
  EXPECT_NE(first.find("[1,2,3]"), std::string::npos);  // cost_resource column

  {
    TimelineWriter writer(8);
    writer.begin(0, 0.0).cost_resource = 5.0;
    writer.commit();
    writer.flush();
  }  // everything already flushed: the destructor must NOT write a duplicate

  const std::string both = read_whole_file(path);
  EXPECT_EQ(count_occurrences(both, "\"type\":\"timeline\""), 2u);
  EXPECT_EQ(count_occurrences(both, "\"frames\":1"), 1u);

  {
    TimelineWriter writer(8);  // destroyed with nothing committed: no-op
  }
  EXPECT_EQ(count_occurrences(read_whole_file(path), "\"type\":\"timeline\""), 2u);

  TimelineWriter::set_dump_path(previous_path);
  std::remove(path);
}

TEST(TimelineWriter, DisabledTimelineContributesNothing) {
  TimelineWriter::set_enabled(false);
  EXPECT_EQ(gp::obs::timeline_frame(), nullptr);
  TimelineWriter::set_enabled(true);
  // Enabled but no open frame: contributors still get nullptr, not a stale
  // frame.
  TimelineWriter::local().clear();
  EXPECT_EQ(gp::obs::timeline_frame(), nullptr);
  TelemetryFrame& frame = TimelineWriter::local().begin(0, 0.0);
  EXPECT_EQ(gp::obs::timeline_frame(), &frame);
  TimelineWriter::local().commit();
  EXPECT_EQ(gp::obs::timeline_frame(), nullptr);
  TimelineWriter::set_enabled(false);
  TimelineWriter::local().clear();
}

}  // namespace
