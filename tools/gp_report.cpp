// gp_report: render a run's artifacts — a span trace (GEOPLACE_TRACE,
// obs/trace.hpp), a per-period telemetry timeline (GEOPLACE_TIMELINE,
// obs/timeline.hpp), or a whole sweep's timeline sidecar directory — into
// tables and anomaly summaries. A file is read line by line, and its lines
// say what it is: "ph":"X" complete events make a trace, timeline lines a
// timeline.
//
// Trace input is the Chrome trace-event array the tracer exports, one
// event per line: its span events are grouped per span name and per module
// (the prefix before the first '.') into a latency table with exact
// p50/p95/p99 computed from the raw durations (gp::percentile, not the
// registry's bucketed estimate). Metadata events other than the
// "run_manifest" provenance event, and any other line, are skipped.
//
// --flame draws a trace as a self-contained SVG flamegraph. Per tid, the
// complete events fold into span stacks by interval containment: a span's
// parent is the innermost span on the SAME thread whose interval holds it
// (a span that starts where its predecessor ends is that one's sibling).
// Each span weighs its self time — its duration minus its children's, in
// integer nanoseconds — so a root's subtree sums exactly to the root's
// duration, and frames of one name merge across threads. Widths are a
// frame's share of all span time; hover titles carry the exact ms and
// share. --diff BASE.json folds a second trace into the same frame trie
// and colors each frame by the change in its share from BASE (red — grew,
// blue — shrank, near-white — stable), so runs of different length
// compare. The title is the input's file name.
//
// Timeline input is the columnar JSONL the TimelineWriter emits: an
// optional {"type":"manifest",...} head, a {"type":"timeline",...} segment
// header, then one {"type":"timeline_col","name":...,"values":[...]} line
// per column. A file may hold several segments (one per engine run when
// GEOPLACE_TIMELINE=<path> appends).
//
// Anomaly detectors, per timeline segment:
//   - cost spikes: total period cost per unit of the demand it served
//     (demand_served_total) above kSpikeFactor x the median of its
//     neighbours, kSpikeHalfWindow periods on each side (needs >=
//     kSpikeMinHistory of them) — the "why did period 37 spike" question
//     answered offline. Normalising by demand keeps the diurnal ramp, where
//     cost follows demand, from reading as a spike; the centred window
//     (a Hampel-style filter, possible because the report reads whole
//     runs) keeps the day/night price level shift from reading as one.
//     Periods that served no demand are skipped, and a timeline recorded
//     before the column existed falls back to raw cost;
//   - unsolved streaks: maximal runs of solved == 0;
//   - SLA drops: periods with demand whose analytic SLA compliance falls
//     below kSlaFloor (at least half the demand misses its latency bound);
//   - forecast-error regressions: the second half's mean one-step demand
//     forecast error at least kForecastRegressionFactor x the first
//     half's (and above an absolute floor), plus per-period outliers
//     above 3 x the median error.
//
// Usage:
//   gp_report [--csv] <trace.json | timeline.jsonl | sweep-timelines-dir> [more...]
//   gp_report --flame <out.svg> [--diff <base.json>] <trace.json>
//   gp_report --self-test
//   gp_report --flame --self-test
//
// A trace file prints its span table, a timeline file full per-period
// tables; a directory argument scans its *.timeline.jsonl sidecars and
// prints one summary line per run plus aggregate anomaly counts.
//
// --csv writes each trace's span table as machine-readable CSV on stdout
// instead (header `span,module,count,total_ms,mean_ms,p50_ms,p95_ms,p99_ms`,
// rows in the same sorted-by-name order, %.10g numbers), for spreadsheet
// import or diffing two runs' span profiles.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "obs/manifest.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace {

constexpr double kSpikeFactor = 2.0;
constexpr std::size_t kSpikeWindow = 9;
constexpr std::size_t kSpikeHalfWindow = 4;
constexpr std::size_t kSpikeMinHistory = 4;
constexpr double kForecastRegressionFactor = 2.0;
constexpr double kForecastFloor = 0.02;
constexpr double kLatencySpikeFactor = 2.0;
constexpr double kLatencyFloorMs = 1.0;
constexpr double kSlaFloor = 0.5;

/// One parsed timeline segment: column name -> values.
struct Segment {
  std::size_t frames = 0;
  std::map<std::string, std::vector<double>> columns;

  const std::vector<double>* column(const std::string& name) const {
    const auto it = columns.find(name);
    return it == columns.end() ? nullptr : &it->second;
  }
  double at(const std::string& name, std::size_t i, double fallback = 0.0) const {
    const auto* values = column(name);
    return values != nullptr && i < values->size() ? (*values)[i] : fallback;
  }
};

struct ParsedFile {
  std::vector<Segment> segments;  ///< timeline segments, in file order
  /// Trace span events, in file order (depth and arg are not read).
  std::vector<gp::obs::TraceEvent> spans;
  std::size_t manifests = 0;  ///< manifest lines seen
  std::optional<gp::obs::RunManifest> manifest;  ///< the first well-formed one
  std::size_t lines = 0;
};

/// Keeps the provenance of the first manifest — a timeline's
/// {"type":"manifest",...} head or the args of a trace's "run_manifest"
/// metadata event.
void read_manifest(const gp::JsonValue& object, ParsedFile& file) {
  ++file.manifests;
  gp::obs::RunManifest manifest = gp::obs::RunManifest::from_json(object.text());
  if (!file.manifest) file.manifest = std::move(manifest);
}

/// The string member `key` of an object, or "" when it is absent.
std::string string_member(const gp::JsonValue& object, std::string_view key) {
  const auto value = object.find(key);
  return value ? value->as_string() : std::string();
}

void parse_line(const gp::JsonValue& object, ParsedFile& file) {
  const std::string type = string_member(object, "type");
  const std::string ph = string_member(object, "ph");
  if (type == "manifest") {
    read_manifest(object, file);
  } else if (ph == "M" && string_member(object, "name") == "run_manifest") {
    read_manifest(object["args"], file);
  } else if (ph == "X") {
    gp::obs::TraceEvent event;
    event.name = object["name"].as_string();
    event.ts_us = object["ts"].as_number();
    event.dur_us = object["dur"].as_number();
    event.tid = static_cast<std::uint32_t>(object["tid"].as_uint64());
    file.spans.push_back(std::move(event));
  } else if (type == "timeline") {
    Segment segment;
    segment.frames = static_cast<std::size_t>(object["frames"].as_uint64());
    file.segments.push_back(std::move(segment));
  } else if (type == "timeline_col") {
    std::vector<double> values;
    for (const gp::JsonValue& value : object["values"].elements()) {
      values.push_back(value.as_number());
    }
    if (file.segments.empty()) file.segments.emplace_back();  // headerless: tolerate
    file.segments.back().columns[object["name"].as_string()] = std::move(values);
  }
}

/// Reads a file line by line; a line that holds no object ("[", "]") or
/// another kind of object is skipped, and a malformed one is reported on
/// stderr and skipped.
ParsedFile parse(std::istream& in) {
  ParsedFile file;
  std::string line;
  while (std::getline(in, line)) {
    ++file.lines;
    const auto object = gp::json_line(line);
    if (!object) continue;
    try {
      parse_line(*object, file);
    } catch (const gp::PreconditionError& error) {
      std::fprintf(stderr, "gp_report: line %zu skipped: %s\n", file.lines, error.what());
    }
  }
  return file;
}

std::string module_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// Span durations in milliseconds, per span name (the span table's rows).
std::map<std::string, std::vector<double>> durations_by_name(const ParsedFile& file) {
  std::map<std::string, std::vector<double>> durations;
  for (const gp::obs::TraceEvent& event : file.spans) {
    durations[event.name].push_back(event.dur_us / 1000.0);
  }
  return durations;
}

/// One row of the span table.
struct SpanStats {
  std::size_t count = 0;
  double total_ms = 0.0, mean_ms = 0.0, p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
};

SpanStats span_stats(const std::vector<double>& durations_ms) {
  SpanStats stats;
  stats.count = durations_ms.size();
  for (double d : durations_ms) stats.total_ms += d;
  stats.mean_ms = stats.total_ms / static_cast<double>(stats.count);
  stats.p50_ms = gp::percentile(durations_ms, 50.0);
  stats.p95_ms = gp::percentile(durations_ms, 95.0);
  stats.p99_ms = gp::percentile(durations_ms, 99.0);
  return stats;
}

void print_span_table(const ParsedFile& file) {
  std::printf("%-28s %8s %12s %10s %10s %10s %10s\n", "span", "count", "total_ms",
              "mean_ms", "p50_ms", "p95_ms", "p99_ms");
  std::string module;
  std::size_t events = 0;
  for (const auto& [name, durations] : durations_by_name(file)) {
    const std::string m = module_of(name);
    if (m != module) {
      module = m;
      std::printf("# module %s\n", module.c_str());
    }
    const SpanStats stats = span_stats(durations);
    events += stats.count;
    std::printf("%-28s %8zu %12.3f %10.4f %10.4f %10.4f %10.4f\n", name.c_str(), stats.count,
                stats.total_ms, stats.mean_ms, stats.p50_ms, stats.p95_ms, stats.p99_ms);
  }
  std::printf("# %zu span events from %zu lines\n", events, file.lines);
}

/// The span table as CSV: fixed column order, one row per span name in the
/// same sorted order as the table. Span names come from Span string
/// literals (no commas/quotes in practice), so no quoting is needed; %.10g
/// keeps ten significant digits through a strtod round-trip.
void print_span_csv(const ParsedFile& file, std::ostream& out) {
  out << "span,module,count,total_ms,mean_ms,p50_ms,p95_ms,p99_ms\n";
  char buffer[256];
  for (const auto& [name, durations] : durations_by_name(file)) {
    const SpanStats stats = span_stats(durations);
    std::snprintf(buffer, sizeof(buffer), "%s,%s,%zu,%.10g,%.10g,%.10g,%.10g,%.10g\n",
                  name.c_str(), module_of(name).c_str(), stats.count, stats.total_ms,
                  stats.mean_ms, stats.p50_ms, stats.p95_ms, stats.p99_ms);
    out << buffer;
  }
}

/// Per-period total cost: resource + reconfiguration + planned SLA penalty
/// (NaN components contribute 0 — unsolved periods stay comparable).
std::vector<double> total_cost_of(const Segment& segment) {
  std::vector<double> total(segment.frames, 0.0);
  for (const char* name : {"cost_resource", "cost_reconfig", "cost_sla_penalty"}) {
    const auto* values = segment.column(name);
    if (values == nullptr) continue;
    for (std::size_t i = 0; i < total.size() && i < values->size(); ++i) {
      if (std::isfinite((*values)[i])) total[i] += (*values)[i];
    }
  }
  return total;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Anomalies {
  std::vector<std::size_t> cost_spikes;            ///< period indices
  std::vector<std::size_t> latency_spikes;         ///< period indices (req_* view)
  std::vector<std::pair<std::size_t, std::size_t>> unsolved_streaks;  ///< (start, len)
  std::vector<std::size_t> sla_drops;              ///< period indices
  std::vector<std::size_t> forecast_outliers;      ///< period indices
  bool forecast_regressed = false;
  double forecast_first_half = 0.0;
  double forecast_second_half = 0.0;

  std::size_t count() const {
    return cost_spikes.size() + latency_spikes.size() + unsolved_streaks.size() +
           sla_drops.size() + forecast_outliers.size() + (forecast_regressed ? 1 : 0);
  }
};

Anomalies detect(const Segment& segment) {
  Anomalies found;
  const std::vector<double> total = total_cost_of(segment);

  // Cost spikes: cost per served demand vs the median of its neighbours.
  {
    const auto* served = segment.column("demand_served_total");
    std::vector<std::size_t> periods;  // periods with a unit cost
    std::vector<double> unit_cost;     // aligned with `periods`
    for (std::size_t k = 0; k < total.size(); ++k) {
      if (served == nullptr) {
        periods.push_back(k);
        unit_cost.push_back(total[k]);
      } else if (k < served->size() && std::isfinite((*served)[k]) && (*served)[k] > 0.0) {
        periods.push_back(k);
        unit_cost.push_back(total[k] / (*served)[k]);
      }
    }
    std::vector<double> neighbours;
    for (std::size_t i = 0; i < unit_cost.size(); ++i) {
      neighbours.clear();
      const std::size_t begin = i > kSpikeHalfWindow ? i - kSpikeHalfWindow : 0;
      const std::size_t end = std::min(unit_cost.size(), i + kSpikeHalfWindow + 1);
      for (std::size_t j = begin; j < end; ++j) {
        if (j != i) neighbours.push_back(unit_cost[j]);
      }
      if (neighbours.size() < kSpikeMinHistory) continue;
      const double median = median_of(neighbours);
      if (median > 0.0 && unit_cost[i] > kSpikeFactor * median) {
        found.cost_spikes.push_back(periods[i]);
      }
    }
  }

  // Empirical latency spikes: periods where the request-level simulator's
  // worst per-pair p95 jumps above kLatencySpikeFactor x the trailing
  // rolling median of SIMULATED periods (req_simulated == 0 frames carry no
  // empirical data and are skipped entirely). The absolute floor keeps
  // sub-millisecond jitter on a healthy placement from flagging.
  {
    const auto* simulated = segment.column("req_simulated");
    const auto* p95 = segment.column("req_worst_p95_ms");
    if (simulated != nullptr && p95 != nullptr) {
      std::vector<std::size_t> periods;  // indices of simulated periods
      std::vector<double> values;        // their p95s, aligned with `periods`
      for (std::size_t k = 0; k < p95->size() && k < simulated->size(); ++k) {
        if ((*simulated)[k] != 0.0 && std::isfinite((*p95)[k])) {
          periods.push_back(k);
          values.push_back((*p95)[k]);
        }
      }
      for (std::size_t i = kSpikeMinHistory; i < values.size(); ++i) {
        const std::size_t begin = i > kSpikeWindow ? i - kSpikeWindow : 0;
        const double median = median_of(
            std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(begin),
                                values.begin() + static_cast<std::ptrdiff_t>(i)));
        if (median > 0.0 && values[i] > kLatencyFloorMs &&
            values[i] > kLatencySpikeFactor * median) {
          found.latency_spikes.push_back(periods[i]);
        }
      }
    }
  }

  // Unsolved streaks.
  if (const auto* solved = segment.column("solved")) {
    std::size_t start = 0, length = 0;
    for (std::size_t k = 0; k <= solved->size(); ++k) {
      const bool unsolved = k < solved->size() && (*solved)[k] == 0.0;
      if (unsolved) {
        if (length == 0) start = k;
        ++length;
      } else if (length > 0) {
        found.unsolved_streaks.emplace_back(start, length);
        length = 0;
      }
    }
  }

  // SLA drops. Compliance is a share of the period's demand, so a period
  // without demand measures nothing (the engine writes 1.0 there).
  if (const auto* sla = segment.column("sla_compliance")) {
    for (std::size_t k = 0; k < sla->size(); ++k) {
      if (segment.at("demand_total", k) > 0.0 && (*sla)[k] < kSlaFloor) {
        found.sla_drops.push_back(k);
      }
    }
  }

  // Forecast-error trend and outliers (err < 0 means "no forecast").
  if (const auto* errs = segment.column("forecast_rel_err")) {
    std::vector<double> valid;
    for (double e : *errs) {
      if (std::isfinite(e) && e >= 0.0) valid.push_back(e);
    }
    if (valid.size() >= 8) {
      const std::size_t half = valid.size() / 2;
      double first = 0.0, second = 0.0;
      for (std::size_t i = 0; i < half; ++i) first += valid[i];
      for (std::size_t i = half; i < valid.size(); ++i) second += valid[i];
      first /= static_cast<double>(half);
      second /= static_cast<double>(valid.size() - half);
      found.forecast_first_half = first;
      found.forecast_second_half = second;
      found.forecast_regressed =
          second > kForecastFloor && second > kForecastRegressionFactor * first;
    }
    const double median = median_of(valid);
    if (median > 0.0) {
      for (std::size_t k = 0; k < errs->size(); ++k) {
        if (std::isfinite((*errs)[k]) && (*errs)[k] > 3.0 * median) {
          found.forecast_outliers.push_back(k);
        }
      }
    }
  }
  return found;
}

std::string join_indices(const std::vector<std::size_t>& indices, std::size_t limit = 12) {
  std::string out;
  for (std::size_t i = 0; i < indices.size() && i < limit; ++i) {
    if (i > 0) out += ",";
    out += std::to_string(indices[i]);
  }
  if (indices.size() > limit) out += ",...";
  return out.empty() ? "-" : out;
}

void print_anomalies(const Anomalies& found) {
  std::printf("# anomalies: %zu\n", found.count());
  if (!found.cost_spikes.empty()) {
    std::printf("#   cost spikes (cost per served demand > %.1fx neighbours' median): "
                "periods %s\n",
                kSpikeFactor,
                join_indices(found.cost_spikes).c_str());
  }
  if (!found.latency_spikes.empty()) {
    std::printf("#   latency spikes (req p95 > %.1fx rolling median): periods %s\n",
                kLatencySpikeFactor, join_indices(found.latency_spikes).c_str());
  }
  for (const auto& [start, length] : found.unsolved_streaks) {
    std::printf("#   unsolved streak: period %zu, length %zu\n", start, length);
  }
  if (!found.sla_drops.empty()) {
    std::printf("#   SLA drops (compliance < %.2f): periods %s\n", kSlaFloor,
                join_indices(found.sla_drops).c_str());
  }
  if (found.forecast_regressed) {
    std::printf("#   forecast error regressed: mean %.4f -> %.4f (first/second half)\n",
                found.forecast_first_half, found.forecast_second_half);
  }
  if (!found.forecast_outliers.empty()) {
    std::printf("#   forecast outliers (> 3x median err): periods %s\n",
                join_indices(found.forecast_outliers).c_str());
  }
}

void print_table(const Segment& segment) {
  const std::vector<double> total = total_cost_of(segment);
  std::printf("%6s %10s %10s %10s %10s %6s %8s %6s %9s %9s %6s %6s\n", "period", "demand",
              "servers", "cost_res", "cost_total", "sla", "fc_err", "iters", "prim_res",
              "policy_ms", "util", "solved");
  for (std::size_t k = 0; k < segment.frames; ++k) {
    std::printf("%6.0f %10.2f %10.2f %10.2f %10.2f %6.3f %8.4f %6.0f %9.2e %9.3f %6.2f "
                "%6.0f\n",
                segment.at("period", k), segment.at("demand_total", k),
                segment.at("servers_total", k), segment.at("cost_resource", k),
                k < total.size() ? total[k] : 0.0, segment.at("sla_compliance", k),
                segment.at("forecast_rel_err", k), segment.at("solver_iterations", k),
                segment.at("solver_primal_residual", k), segment.at("policy_ms", k),
                segment.at("pool_util", k), segment.at("solved", k));
  }
  double cost = 0.0;
  for (double c : total) cost += c;
  std::printf("# %zu periods, total cost %.2f\n", segment.frames, cost);
  print_anomalies(detect(segment));
}

/// Compact one-line view of a sidecar (directory mode).
void print_summary_line(const std::string& name, const ParsedFile& file) {
  for (const Segment& segment : file.segments) {
    const std::vector<double> total = total_cost_of(segment);
    double cost = 0.0;
    for (double c : total) cost += c;
    std::size_t unsolved = 0;
    if (const auto* solved = segment.column("solved")) {
      for (double s : *solved) unsolved += s == 0.0 ? 1 : 0;
    }
    const Anomalies found = detect(segment);
    std::printf("%-56s %4zu periods  cost %12.2f  unsolved %3zu  anomalies %2zu\n",
                name.c_str(), segment.frames, cost, unsolved, found.count());
  }
}

int report_file(const std::string& path, bool csv) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "gp_report: cannot open %s\n", path.c_str());
    return 2;
  }
  const ParsedFile file = parse(in);
  if (csv) {
    if (file.spans.empty()) {
      std::fprintf(stderr, "gp_report: no span events in %s for --csv\n", path.c_str());
      return 1;
    }
    print_span_csv(file, std::cout);
    return 0;
  }
  if (file.spans.empty() && file.segments.empty()) {
    std::fprintf(stderr,
                 "gp_report: no span events or timeline segments in %s (is GEOPLACE_TRACE "
                 "or GEOPLACE_TIMELINE set when running the workload?)\n",
                 path.c_str());
    return 1;
  }
  if (!file.spans.empty()) {
    std::printf("== %s spans\n", path.c_str());
    print_span_table(file);
  }
  for (std::size_t s = 0; s < file.segments.size(); ++s) {
    std::printf("== %s segment %zu\n", path.c_str(), s);
    print_table(file.segments[s]);
  }
  if (file.manifest) {
    std::printf("# recorded by %s at git %s\n", file.manifest->tool.c_str(),
                file.manifest->git_sha.c_str());
  }
  return 0;
}

int report_directory(const std::string& dir) {
  std::vector<std::filesystem::path> sidecars;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().ends_with(".timeline.jsonl")) {
      sidecars.push_back(entry.path());
    }
  }
  std::sort(sidecars.begin(), sidecars.end());
  if (sidecars.empty()) {
    std::fprintf(stderr, "gp_report: no *.timeline.jsonl sidecars in %s\n", dir.c_str());
    return 1;
  }
  std::size_t anomalies = 0;
  for (const auto& path : sidecars) {
    std::ifstream in(path);
    if (!in) continue;
    const ParsedFile file = parse(in);
    print_summary_line(path.filename().string(), file);
    for (const Segment& segment : file.segments) anomalies += detect(segment).count();
  }
  std::printf("# %zu sidecars, %zu anomalies total\n", sidecars.size(), anomalies);
  return 0;
}

// ---------------------------------------------------------------- flamegraph

constexpr double kFlameWidth = 1200.0;
constexpr double kRowHeight = 16.0;
constexpr double kFontSize = 11.0;
constexpr double kMinRectPx = 0.3;    ///< nodes narrower than this are dropped
constexpr double kMinLabelPx = 35.0;  ///< rects narrower than this get no text
constexpr double kMargin = 10.0;
constexpr double kHeaderPx = 38.0;

/// One node of the frame trie. Weights are INCLUSIVE self-time sums in
/// nanoseconds (every span whose stack passes through this frame); `test`
/// drives the layout, `base` is only filled by --diff.
struct Node {
  std::uint64_t test = 0;
  std::uint64_t base = 0;
  std::map<std::string, std::unique_ptr<Node>> children;
};

/// Folds a trace's span events into the trie under `root` (see file
/// comment), into Node::base or Node::test per `into_base`.
void fold_spans(const std::vector<gp::obs::TraceEvent>& spans, Node& root, bool into_base) {
  struct Interval {
    std::uint32_t tid;
    std::int64_t begin_ns, end_ns;
    std::size_t event;
  };
  std::vector<Interval> order;
  order.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t begin = std::llround(spans[i].ts_us * 1000.0);
    const std::int64_t dur = std::max<std::int64_t>(std::llround(spans[i].dur_us * 1000.0), 0);
    order.push_back({spans[i].tid, begin, begin + dur, i});
  }
  // Per tid by start; an enclosing span sorts before what it contains (the
  // later end first). On an identical interval the later event is the
  // outer one: spans are recorded as they close.
  std::sort(order.begin(), order.end(), [](const Interval& a, const Interval& b) {
    return std::tie(a.tid, a.begin_ns, b.end_ns, b.event) <
           std::tie(b.tid, b.begin_ns, a.end_ns, a.event);
  });

  struct Open {
    std::int64_t end_ns;
    std::uint64_t dur_ns;
    std::uint64_t children_ns = 0;
    Node* node;
  };
  std::vector<Open> stack;
  const auto weight = [into_base](Node& node) -> std::uint64_t& {
    return into_base ? node.base : node.test;
  };
  // Closing a span credits its self time to the root and every frame on
  // its path, and its duration to its parent's children.
  const auto close_top = [&] {
    const Open top = stack.back();
    const std::uint64_t self = top.dur_ns > top.children_ns ? top.dur_ns - top.children_ns : 0;
    weight(root) += self;
    for (const Open& open : stack) weight(*open.node) += self;
    stack.pop_back();
    if (!stack.empty()) stack.back().children_ns += top.dur_ns;
  };
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Interval& span = order[k];
    if (k > 0 && span.tid != order[k - 1].tid) {
      while (!stack.empty()) close_top();
    }
    while (!stack.empty() && span.end_ns > stack.back().end_ns) close_top();
    Node& parent = stack.empty() ? root : *stack.back().node;
    auto& child = parent.children[spans[span.event].name];
    if (!child) child = std::make_unique<Node>();
    stack.push_back({span.end_ns, static_cast<std::uint64_t>(span.end_ns - span.begin_ns), 0,
                     child.get()});
  }
  while (!stack.empty()) close_top();
}

/// Deterministic frame color: a warm palette keyed on a simple string hash,
/// so the same span name gets the same color in every rendering.
std::string frame_color(const std::string& name) {
  std::uint32_t h = 2166136261u;
  for (const char c : name) h = (h ^ static_cast<std::uint8_t>(c)) * 16777619u;
  const int r = 205 + static_cast<int>(h % 50);
  const int g = static_cast<int>((h / 50) % 180);
  const int b = static_cast<int>((h / 9000) % 55);
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "rgb(%d,%d,%d)", r, g, b);
  return buffer;
}

/// Differential color: red when the frame's share of span time grew from
/// base to test, blue when it shrank, near-white when stable. Intensity
/// scales with the share delta (saturating at 20 percentage points).
std::string diff_color(double base_share, double test_share) {
  const double delta = test_share - base_share;
  const double intensity = std::min(std::fabs(delta) / 0.20, 1.0);
  const int fade = static_cast<int>(235.0 - 155.0 * intensity);
  char buffer[32];
  if (delta >= 0.0) {
    std::snprintf(buffer, sizeof buffer, "rgb(235,%d,%d)", fade, fade);
  } else {
    std::snprintf(buffer, sizeof buffer, "rgb(%d,%d,235)", fade, fade);
  }
  return buffer;
}

std::string xml_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::size_t trie_depth(const Node& node) {
  std::size_t deepest = 0;
  for (const auto& [name, child] : node.children) {
    deepest = std::max(deepest, trie_depth(*child) + 1);
  }
  return deepest;
}

/// Emits the rects for `node`'s children left to right at `depth`,
/// recursing upward. `x` is the left edge in pixels; widths are
/// test-weight-proportional. Returns the number of rects emitted.
std::size_t render_level(std::ostream& out, const Node& node, const Node& root, bool diff,
                         double x, std::size_t depth, double px_per_ns, double svg_height) {
  std::size_t rects = 0;
  const double total_test = static_cast<double>(root.test);
  const double total_base = static_cast<double>(root.base);
  for (const auto& [name, child] : node.children) {
    const double width = static_cast<double>(child->test) * px_per_ns;
    if (width < kMinRectPx) {
      x += width;
      continue;
    }
    // Bottom-up: depth 0 sits just above the footer.
    const double y = svg_height - kMargin - kRowHeight * static_cast<double>(depth + 1);
    const double test_share = total_test > 0.0 ? static_cast<double>(child->test) / total_test : 0.0;
    const double base_share = total_base > 0.0 ? static_cast<double>(child->base) / total_base : 0.0;
    const std::string color = diff ? diff_color(base_share, test_share) : frame_color(name);
    std::string tooltip = xml_escape(name);
    {
      char detail[160];
      if (diff) {
        std::snprintf(detail, sizeof detail,
                      ": %.2f%% of span time (was %.2f%%, %+.2f points)", 100.0 * test_share,
                      100.0 * base_share, 100.0 * (test_share - base_share));
      } else {
        std::snprintf(detail, sizeof detail, ": %.3f ms (%.2f%%)",
                      static_cast<double>(child->test) / 1e6, 100.0 * test_share);
      }
      tooltip += detail;
    }
    out << "<g><title>" << tooltip << "</title>"
        << "<rect x=\"" << x << "\" y=\"" << y << "\" width=\"" << width << "\" height=\""
        << kRowHeight - 1.0 << "\" fill=\"" << color << "\" rx=\"1\"/>";
    if (width >= kMinLabelPx) {
      // Crude glyph budget: ~7 px per character at 11 px font.
      const std::size_t max_chars = static_cast<std::size_t>(width / 7.0);
      std::string label = name;
      if (label.size() > max_chars) {
        label.resize(max_chars > 2 ? max_chars - 2 : 0);
        label += "..";
      }
      out << "<text x=\"" << x + 3.0 << "\" y=\"" << y + kRowHeight - 5.0 << "\" font-size=\""
          << kFontSize << "\" font-family=\"monospace\" fill=\"#000\">" << xml_escape(label)
          << "</text>";
    }
    out << "</g>\n";
    ++rects;
    rects += render_level(out, *child, root, diff, x, depth + 1, px_per_ns, svg_height);
    x += width;
  }
  return rects;
}

/// Renders the whole SVG document; returns the number of frame rects.
std::size_t render_svg(std::ostream& out, const Node& root, const std::string& title,
                       bool diff) {
  const std::size_t depth = std::max<std::size_t>(trie_depth(root), 1);
  const double svg_height =
      kHeaderPx + kRowHeight * static_cast<double>(depth) + 2.0 * kMargin;
  const double drawable = kFlameWidth - 2.0 * kMargin;
  const double px_per_ns = root.test > 0 ? drawable / static_cast<double>(root.test) : 0.0;
  char total[64];
  std::snprintf(total, sizeof total, "%.3f ms of span time", static_cast<double>(root.test) / 1e6);
  out << "<?xml version=\"1.0\" standalone=\"no\"?>\n"
      << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << kFlameWidth
      << "\" height=\"" << svg_height << "\" viewBox=\"0 0 " << kFlameWidth << " "
      << svg_height << "\">\n"
      << "<rect x=\"0\" y=\"0\" width=\"" << kFlameWidth << "\" height=\"" << svg_height
      << "\" fill=\"#f8f8f8\"/>\n"
      << "<text x=\"" << kMargin << "\" y=\"22\" font-size=\"15\" font-family=\"monospace\">"
      << xml_escape(title) << "</text>\n"
      << "<text x=\"" << kMargin << "\" y=\"" << kHeaderPx - 4.0
      << "\" font-size=\"11\" font-family=\"monospace\" fill=\"#555\">" << total
      << (diff ? " (red: grew, blue: shrank vs base)" : "") << "</text>\n";
  const std::size_t rects =
      render_level(out, root, root, diff, kMargin, 0, px_per_ns, svg_height);
  out << "</svg>\n";
  return rects;
}

/// --flame: folds `trace_path` (and `base_path` for --diff, when not empty)
/// and writes the flamegraph to `out_path`.
int render_flame(const std::string& out_path, const std::string& trace_path,
                 const std::string& base_path) {
  Node root;
  std::string title;
  for (const std::string* path : {&base_path, &trace_path}) {
    if (path->empty()) continue;
    std::ifstream in(*path);
    if (!in) {
      std::fprintf(stderr, "gp_report: cannot open %s\n", path->c_str());
      return 2;
    }
    const ParsedFile file = parse(in);
    if (file.spans.empty()) {
      std::fprintf(stderr, "gp_report: no span events in %s for --flame\n", path->c_str());
      return 1;
    }
    fold_spans(file.spans, root, path == &base_path);
    if (!title.empty()) title += " -> ";
    title += std::filesystem::path(*path).filename().string();
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "gp_report: cannot write %s\n", out_path.c_str());
    return 2;
  }
  render_svg(out, root, title, !base_path.empty());
  std::fprintf(stderr, "gp_report: wrote %s\n", out_path.c_str());
  return 0;
}

/// Round-trips synthetic spans through write_chrome_trace and synthetic
/// frames through write_timeline_jsonl into the parser, and checks the span
/// table's percentiles and CSV and every anomaly detector against planted
/// defects.
int self_test() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };

  // 48 synthetic periods: steady cost 100 with a 5x spike at period 20, an
  // unsolved streak at 30..32, a forecast error that doubles in the second
  // half (0.01 -> 0.08), an empirical request-latency spike at period 40
  // (p95 jumps 20ms -> 90ms; periods 10..11 carry no request simulation so
  // the detector must skip them, not read them as 0ms), and an SLA drop at
  // period 44 (compliance 0.999 -> 0.2).
  std::vector<gp::obs::TelemetryFrame> frames(48);
  for (std::size_t k = 0; k < frames.size(); ++k) {
    auto& f = frames[k];
    f.period = static_cast<double>(k);
    f.utc_hour = 0.5 * static_cast<double>(k);
    f.demand_total = 1000.0 + static_cast<double>(k);
    f.demand_served_total = f.demand_total + 1.0;
    f.cost_resource = k == 20 ? 500.0 : 100.0;
    f.cost_reconfig = 1.25;
    f.solved = (k >= 30 && k <= 32) ? 0.0 : 1.0;
    f.forecast_rel_err = k == 0 ? -1.0 : (k < 24 ? 0.01 : 0.08);
    f.solver_iterations = 25.0;
    f.solver_primal_residual = 1e-4;
    f.sla_compliance = k == 44 ? 0.2 : 0.999;
    f.req_simulated = (k == 10 || k == 11) ? 0.0 : 1.0;
    f.req_worst_p95_ms = f.req_simulated == 0.0 ? 0.0 : (k == 40 ? 90.0 : 20.0);
    f.pool_busy_ms = 12.0;
    f.pool_idle_ms = 4.0;
    f.pool_util = 0.75;
  }
  frames[5].mean_latency_ms = std::nan("");  // non-finite -> null round-trip

  gp::obs::RunManifest manifest;
  manifest.tool = "timeline";
  manifest.git_sha = "abc123def456";
  std::ostringstream out;
  gp::obs::write_timeline_jsonl(out, frames, &manifest);

  std::istringstream in(out.str());
  const ParsedFile file = parse(in);
  expect(file.segments.size() == 1, "one segment parsed");
  expect(file.manifest && file.manifest->tool == "timeline" &&
             file.manifest->git_sha == "abc123def456",
         "manifest provenance extracted");
  if (file.segments.empty()) return 1;
  const Segment& segment = file.segments[0];
  expect(segment.frames == frames.size(), "frame count round-trips");
  expect(segment.columns.size() == gp::obs::timeline_num_columns(),
         "every column present");
  for (const std::string& name : gp::obs::timeline_column_names()) {
    const auto* values = segment.column(name);
    expect(values != nullptr && values->size() == frames.size(), "column sized to frames");
  }
  expect(segment.at("cost_resource", 20) == 500.0, "spike value round-trips exactly");
  expect(segment.at("forecast_rel_err", 0) == -1.0, "sentinel round-trips exactly");
  expect(segment.at("demand_total", 47) == 1047.0, "demand round-trips exactly");
  expect(std::isnan(segment.at("mean_latency_ms", 5)), "null parses as NaN");

  expect(segment.at("pool_util", 3) == 0.75, "pool_util round-trips exactly");
  const Anomalies found = detect(segment);
  expect(found.cost_spikes.size() == 1 && found.cost_spikes[0] == 20,
         "the planted cost spike (and only it) is detected");
  expect(found.latency_spikes.size() == 1 && found.latency_spikes[0] == 40,
         "the planted req p95 latency spike (and only it) is detected");
  expect(found.unsolved_streaks.size() == 1 && found.unsolved_streaks[0].first == 30 &&
             found.unsolved_streaks[0].second == 3,
         "the planted unsolved streak is detected");
  expect(found.sla_drops.size() == 1 && found.sla_drops[0] == 44,
         "the planted SLA drop (and only it) is detected");
  expect(found.forecast_regressed, "the planted forecast regression is detected");

  // A diurnal ramp: demand climbs fivefold over periods 8..12 and cost
  // follows it, so cost per served demand stays flat and nothing fires (a
  // raw-cost detector against the trailing median fires at period 10). A
  // real spike at period 18, triple cost on unchanged demand, must fire.
  std::vector<gp::obs::TelemetryFrame> ramp(24);
  for (std::size_t k = 0; k < ramp.size(); ++k) {
    const double step = static_cast<double>(std::min<std::size_t>(std::max<std::size_t>(k, 8), 12) - 8);
    ramp[k].period = static_cast<double>(k);
    ramp[k].demand_served_total = 100.0 * (1.0 + step);
    ramp[k].demand_total = ramp[k].demand_served_total;
    ramp[k].cost_resource = 0.01 * ramp[k].demand_served_total * (k == 18 ? 3.0 : 1.0);
    ramp[k].solved = 1.0;
    ramp[k].sla_compliance = 1.0;
  }
  std::ostringstream ramp_out;
  gp::obs::write_timeline_jsonl(ramp_out, ramp);
  std::istringstream ramp_in(ramp_out.str());
  const ParsedFile ramp_file = parse(ramp_in);
  const Anomalies ramp_found =
      ramp_file.segments.empty() ? Anomalies{} : detect(ramp_file.segments[0]);
  expect(ramp_found.cost_spikes.size() == 1 && ramp_found.cost_spikes[0] == 18,
         "the diurnal ramp does not fire; the planted spike on it does");

  // A clean constant-cost timeline must report no anomalies.
  std::vector<gp::obs::TelemetryFrame> clean(24);
  for (std::size_t k = 0; k < clean.size(); ++k) {
    clean[k].period = static_cast<double>(k);
    clean[k].cost_resource = 100.0;
    clean[k].solved = 1.0;
    clean[k].forecast_rel_err = 0.01;
  }
  std::ostringstream clean_out;
  gp::obs::write_timeline_jsonl(clean_out, clean);
  std::istringstream clean_in(clean_out.str());
  const ParsedFile clean_file = parse(clean_in);
  expect(clean_file.segments.size() == 1 && detect(clean_file.segments[0]).count() == 0,
         "a clean timeline reports no anomalies");

  // Two appended segments (the GEOPLACE_TIMELINE=<path> shape) stay separate.
  std::ostringstream multi;
  gp::obs::write_timeline_jsonl(multi, clean, &manifest);
  gp::obs::write_timeline_jsonl(multi, frames);
  std::istringstream multi_in(multi.str());
  const ParsedFile multi_file = parse(multi_in);
  expect(multi_file.segments.size() == 2 && multi_file.segments[0].frames == 24 &&
             multi_file.segments[1].frames == 48,
         "appended segments parse separately");

  // A trace from the tracer's own exporter: admm.solve with durations of
  // exactly 1..100 ms (the interpolated percentiles are easy to state in
  // closed form) and two mpc.step spans. Its metadata events, a counter
  // event and a registry metric line appended to it are not spans.
  std::vector<gp::obs::TraceEvent> events;
  for (int i = 1; i <= 100; ++i) {
    events.push_back({"admm.solve", i * 10.0, i * 1000.0, 1, 0, 0.0, false});
  }
  events.push_back({"mpc.step", 0.0, 2500.0, 1, 0, 0.0, false});
  events.push_back({"mpc.step", 9.0, 7500.0, 1, 0, 3.0, true});
  gp::obs::RunManifest trace_manifest;
  trace_manifest.tool = "trace";
  trace_manifest.git_sha = "abc123def456";
  std::ostringstream trace_out;
  gp::obs::write_chrome_trace(trace_out, events, &trace_manifest);
  trace_out << "{\"ph\":\"C\",\"name\":\"admm.primal_residual\",\"ts\":5,"
               "\"args\":{\"value\":0.25}}\n";
  trace_out << "{\"type\":\"histogram\",\"name\":\"admm.solve_ms\",\"count\":3}\n";
  std::istringstream trace_in(trace_out.str());
  const ParsedFile trace = parse(trace_in);
  const auto trace_spans = durations_by_name(trace);
  expect(trace.segments.empty(), "a trace holds no timeline segments");
  expect(trace_spans.size() == 2 && trace_spans.count("admm.solve") == 1 &&
             trace_spans.count("mpc.step") == 1,
         "metadata, counter and metric lines are not counted as spans");
  expect(trace.manifests == 1, "the run_manifest event is recognized");
  expect(trace.manifest && trace.manifest->tool == "trace" &&
             trace.manifest->git_sha == "abc123def456",
         "trace manifest provenance extracted");
  if (trace_spans.size() != 2) return 1;
  const SpanStats admm = span_stats(trace_spans.at("admm.solve"));
  expect(admm.count == 100, "admm.solve count == 100");
  expect(gp::approx_equal(admm.p50_ms, 50.5, 1e-12, 1e-9), "admm.solve p50 == 50.5 ms");
  expect(gp::approx_equal(admm.p99_ms, 99.01, 1e-12, 1e-9), "admm.solve p99 == 99.01 ms");
  expect(gp::approx_equal(admm.total_ms, 5050.0, 1e-12, 1e-9), "admm.solve total == 5050 ms");
  const SpanStats mpc = span_stats(trace_spans.at("mpc.step"));
  expect(mpc.count == 2, "mpc.step count == 2");
  expect(gp::approx_equal(mpc.total_ms, 10.0, 1e-12, 1e-9), "mpc.step total == 10 ms");

  // CSV round-trip: the emitted rows must parse back to the values the
  // table was computed from, in the same order.
  std::ostringstream csv;
  print_span_csv(trace, csv);
  std::istringstream csv_in(csv.str());
  std::string line;
  expect(std::getline(csv_in, line) &&
             line == "span,module,count,total_ms,mean_ms,p50_ms,p95_ms,p99_ms",
         "CSV header is the documented column order");
  auto group = trace_spans.begin();
  for (; std::getline(csv_in, line) && group != trace_spans.end(); ++group) {
    std::vector<std::string> cells;
    std::stringstream cell_stream(line);
    std::string cell;
    while (std::getline(cell_stream, cell, ',')) cells.push_back(cell);
    expect(cells.size() == 8, "CSV row has 8 cells");
    if (cells.size() != 8) continue;
    const SpanStats stats = span_stats(group->second);
    auto cell_is = [&cells](std::size_t k, double value) {
      return gp::approx_equal(std::strtod(cells[k].c_str(), nullptr), value, 1e-9, 1e-12);
    };
    expect(cells[0] == group->first && cells[1] == module_of(group->first),
           "CSV rows follow the table's order and modules");
    expect(cell_is(2, static_cast<double>(stats.count)) && cell_is(3, stats.total_ms) &&
               cell_is(4, stats.mean_ms) && cell_is(5, stats.p50_ms) &&
               cell_is(6, stats.p95_ms) && cell_is(7, stats.p99_ms),
           "CSV numbers round-trip");
  }
  expect(group == trace_spans.end() && !std::getline(csv_in, line),
         "CSV has one row per span name");

  if (failures == 0) std::printf("gp_report self-test OK\n");
  return failures == 0 ? 0 : 1;
}

/// `--flame --self-test`: folds exporter-written traces and checks the
/// flamegraph's fold, layout, diff coloring and escaping.
int flame_self_test() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "flame self-test FAILED: %s\n", what);
      ++failures;
    }
  };

  // Flamegraph fold, on traces from the tracer's own exporter (µs). Thread
  // 1 nests four deep, engine.run > sim.period > admm.solve > admm.factor,
  // and its two sim.period spans abut (the second starts where the first
  // ends). Thread 2's sweep.cell lies inside engine.run's interval but on
  // another thread, so it stays a root. Self times: sim.period 30 + 20,
  // admm.solve 20, admm.factor 10, sla 20, sweep.cell 40, its admm.solve
  // 10 — 150 µs in all.
  const auto fold_trace = [](const std::vector<gp::obs::TraceEvent>& spans, Node& root,
                             bool into_base) {
    std::ostringstream written;
    gp::obs::write_chrome_trace(written, spans);
    std::istringstream read(written.str());
    fold_spans(parse(read).spans, root, into_base);
  };
  const auto child_of = [](const Node& node, const std::string& name) -> const Node* {
    const auto it = node.children.find(name);
    return it == node.children.end() ? nullptr : it->second.get();
  };
  std::vector<gp::obs::TraceEvent> nested = {
      {"admm.factor", 15.0, 10.0, 1, 3, 0.0, false},
      {"admm.solve", 10.0, 30.0, 1, 2, 0.0, false},
      {"sim.period", 0.0, 60.0, 1, 1, 0.0, false},
      {"admm.solve", 20.0, 10.0, 2, 1, 0.0, false},
      {"sla", 70.0, 20.0, 1, 2, 0.0, false},
      {"sim.period", 60.0, 40.0, 1, 1, 0.0, false},
      {"sweep.cell", 5.0, 50.0, 2, 0, 0.0, false},
      {"engine.run", 0.0, 100.0, 1, 0, 0.0, false},
  };
  Node flame;
  fold_trace(nested, flame, false);
  const Node* engine = child_of(flame, "engine.run");
  const Node* period = engine != nullptr ? child_of(*engine, "sim.period") : nullptr;
  const Node* cell = child_of(flame, "sweep.cell");
  expect(flame.test == 150000, "the roots' folded weights sum to their durations (ns)");
  expect(flame.children.size() == 2 && engine != nullptr && engine->test == 100000 &&
             cell != nullptr && cell->test == 50000,
         "each root's subtree sums to the root's duration");
  expect(period != nullptr && period->test == 100000 && period->children.size() == 2,
         "abutting siblings fold into one frame under their parent");
  if (period != nullptr) {
    const Node* solve = child_of(*period, "admm.solve");
    const Node* factor = solve != nullptr ? child_of(*solve, "admm.factor") : nullptr;
    expect(solve != nullptr && solve->test == 30000 && factor != nullptr &&
               factor->test == 10000,
           "inclusive weights down the four-deep stack");
  }
  expect(engine != nullptr && child_of(*engine, "sweep.cell") == nullptr && cell != nullptr &&
             child_of(*cell, "admm.solve") != nullptr && child_of(*cell, "admm.solve")->test == 10000,
         "no span is attributed to a parent on another tid");
  expect(trie_depth(flame) == 4, "trie depth follows the deepest stack");

  // A root that starts after 1e6 µs, with children whose ts differ from it
  // below 1 µs: a 6-significant-digit writer would merge them.
  const std::vector<gp::obs::TraceEvent> late = {
      {"sim.period", 1234568.5, 1000000.125, 1, 1, 0.0, false},
      {"sim.period", 2234568.625, 1345677.5, 1, 1, 0.0, false},
      {"engine.run", 1234567.891, 2345678.25, 1, 0, 0.0, false},
  };
  Node late_flame;
  fold_trace(late, late_flame, false);
  const Node* late_engine = child_of(late_flame, "engine.run");
  expect(late_flame.test == 2345678250 && late_engine != nullptr &&
             late_engine->test == 2345678250 && late_flame.children.size() == 1 &&
             child_of(*late_engine, "sim.period") != nullptr &&
             child_of(*late_engine, "sim.period")->test == 2345677625,
         "a late root's folded weights sum to its duration, to the nanosecond");

  // Layout: one rect per trie node, widths proportional to weight.
  std::ostringstream svg;
  const std::size_t rects = render_svg(svg, flame, "fold.json", false);
  const std::string doc = svg.str();
  expect(rects == 7, "one rect per trie node");
  expect(doc.rfind("<?xml", 0) == 0, "document starts with the XML prologue");
  expect(doc.find("</svg>") != std::string::npos, "document closes the svg element");
  expect(doc.find(">fold.json</text>") != std::string::npos, "the title is the file name");
  {
    std::size_t opens = 0, closes = 0, at = 0;
    while ((at = doc.find("<g>", at)) != std::string::npos) { ++opens; at += 3; }
    at = 0;
    while ((at = doc.find("</g>", at)) != std::string::npos) { ++closes; at += 4; }
    expect(opens == rects && closes == rects, "every rect group is closed");
  }
  // engine.run holds 100 of the 150 µs: its rect is 100/150 of the
  // drawable width.
  {
    char needle[64];
    std::snprintf(needle, sizeof needle, "width=\"%g\"",
                  (kFlameWidth - 2.0 * kMargin) * 100.0 / 150.0);
    expect(doc.find(needle) != std::string::npos, "engine.run width is 100/150 of drawable");
  }
  expect(doc.find("admm.factor: 0.010 ms (6.67%)") != std::string::npos,
         "tooltip carries exact time and share");

  // Differential rendering: sweep.cell doubles (50 -> 100 µs), so its
  // share grows 33% -> 50% (red) and engine.run's shrinks 67% -> 50%.
  Node diff;
  fold_trace(nested, diff, true);
  nested[6].dur_us = 100.0;
  fold_trace(nested, diff, false);
  expect(diff.base == 150000 && diff.test == 200000, "both sides accumulated");
  expect(diff_color(0.50, 0.75).rfind("rgb(235,", 0) == 0, "grown frame is red");
  expect(diff_color(0.40, 0.0833).find(",235)") != std::string::npos, "shrunk frame is blue");
  expect(diff_color(0.30, 0.30) == "rgb(235,235,235)", "stable frame is near-white");
  std::ostringstream diff_svg;
  render_svg(diff_svg, diff, "base.json -> test.json", true);
  expect(diff_svg.str().find("sweep.cell: 50.00% of span time (was 33.33%, +16.67 points)") !=
             std::string::npos,
         "diff tooltips report share deltas");

  // XML escaping: hostile frame names cannot break the document.
  Node hostile;
  fold_trace({{"a<b>&\"c\"", 0.0, 5.0, 0, 0, 0.0, false}}, hostile, false);
  std::ostringstream hostile_svg;
  render_svg(hostile_svg, hostile, "<t>", false);
  expect(hostile_svg.str().find("a&lt;b&gt;&amp;&quot;c&quot;") != std::string::npos,
         "frame names are XML-escaped");
  expect(hostile_svg.str().find("a<b>") == std::string::npos &&
             hostile_svg.str().find("<t>") == std::string::npos,
         "no raw markup leaks");

  // A trie without spans renders an empty (but valid) document.
  std::ostringstream empty_svg;
  expect(render_svg(empty_svg, Node{}, "empty", false) == 0, "empty trie: no rects");
  expect(empty_svg.str().find("</svg>") != std::string::npos, "empty document still valid");

  if (failures == 0) std::printf("gp_report flame self-test OK\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

/// `--flame OUT.svg [--diff BASE.json] TRACE.json` or `--flame --self-test`,
/// argv[1] being --flame.
int flame_main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[2], "--self-test") == 0) return flame_self_test();
  std::string base_path, trace_path;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--diff") == 0 && i + 1 < argc && base_path.empty()) {
      base_path = argv[++i];
    } else if (argv[i][0] != '-' && trace_path.empty()) {
      trace_path = argv[i];
    } else {
      trace_path.clear();
      break;
    }
  }
  if (argc < 4 || trace_path.empty()) {
    std::fprintf(stderr, "usage: gp_report --flame <out.svg> [--diff <base.json>] <trace.json>\n");
    return 2;
  }
  return render_flame(argv[2], trace_path, base_path);
}

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--self-test") == 0) return self_test();
  if (argc >= 2 && std::strcmp(argv[1], "--flame") == 0) return flame_main(argc, argv);
  const bool csv = argc >= 2 && std::strcmp(argv[1], "--csv") == 0;
  const int first = csv ? 2 : 1;
  if (first >= argc) {
    std::fprintf(stderr,
                 "usage: gp_report [--csv] <trace.json | timeline.jsonl | "
                 "sweep-timelines-dir> [more...]\n"
                 "       gp_report --flame <out.svg> [--diff <base.json>] <trace.json>\n"
                 "       gp_report --self-test\n"
                 "       gp_report --flame --self-test\n");
    return 2;
  }
  int worst = 0;
  for (int i = first; i < argc; ++i) {
    std::error_code ec;
    const bool is_dir = std::filesystem::is_directory(argv[i], ec);
    worst = std::max(worst, is_dir ? report_directory(argv[i]) : report_file(argv[i], csv));
  }
  return worst;
}
