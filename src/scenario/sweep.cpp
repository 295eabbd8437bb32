#include "scenario/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <span>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/serialize.hpp"
#include "sim/request_path.hpp"

namespace gp::scenario {

namespace {

/// Report label of a grid scenario (specs built by hand may be unnamed).
std::string scenario_label(const ScenarioSpec& spec, std::size_t index) {
  if (!spec.name.empty()) return spec.name;
  return "scenario" + std::to_string(index);
}

Aggregate aggregate_of(std::span<const double> values) {
  Aggregate agg;
  if (values.empty()) return agg;
  agg.mean = mean(values);
  agg.stddev = stddev(values);
  agg.min = *std::min_element(values.begin(), values.end());
  agg.max = *std::max_element(values.begin(), values.end());
  return agg;
}

/// Thread-safe, rate-limited sweep progress line on stderr (or an injected
/// stream). Lanes call update() once per finished run; prints are throttled
/// to one per kMinPrintIntervalMs via a CAS on the last-print stamp, so
/// contention is one relaxed fetch_add per run plus the occasional write.
/// Every print starts with "\r\x1b[2K" (carriage return + erase-line), so a
/// shorter line fully replaces a longer one and the final newline-terminated
/// print leaves no stale characters behind. Purely cosmetic: never touches
/// the result arrays.
class ProgressMeter {
 public:
  ProgressMeter(std::size_t total, bool enabled, std::ostream* out)
      : total_(total), enabled_(enabled), out_(out),
        start_(std::chrono::steady_clock::now()) {}

  void update(bool failed) {
    const std::size_t done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (failed) failures_.fetch_add(1, std::memory_order_relaxed);
    if (!enabled_) return;
    const long long now_ms = elapsed_ms();
    long long last = last_print_ms_.load(std::memory_order_relaxed);
    if (done != total_ &&
        (now_ms - last < kMinPrintIntervalMs ||
         !last_print_ms_.compare_exchange_strong(last, now_ms, std::memory_order_relaxed))) {
      return;  // someone printed recently (or just won the slot)
    }
    print(done, now_ms, /*final_line=*/done == total_);
  }

 private:
  static constexpr long long kMinPrintIntervalMs = 200;

  long long elapsed_ms() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  void print(std::size_t done, long long now_ms, bool final_line) const {
    const double rate = now_ms > 0 ? 1000.0 * static_cast<double>(done)
                                         / static_cast<double>(now_ms)
                                   : 0.0;
    const double eta_s = rate > 0.0 ? static_cast<double>(total_ - done) / rate : 0.0;
    char line[192];
    std::snprintf(line, sizeof line,
                  "\r\x1b[2Ksweep: %zu/%zu runs, %.1f runs/s, ETA %.1fs, failures %zu%s",
                  done, total_, rate, eta_s, failures_.load(std::memory_order_relaxed),
                  final_line ? "\n" : "");
    if (out_ != nullptr) {
      (*out_) << line;
      out_->flush();
    } else {
      std::fputs(line, stderr);
      std::fflush(stderr);
    }
  }

  const std::size_t total_;
  const bool enabled_;
  std::ostream* const out_;  ///< nullptr = stderr
  const std::chrono::steady_clock::time_point start_;
  std::atomic<std::size_t> done_{0};
  std::atomic<std::size_t> failures_{0};
  std::atomic<long long> last_print_ms_{-kMinPrintIntervalMs};
};

}  // namespace

std::string sweep_artifact_token(const std::string& name) {
  std::string out;
  bool changed = false;
  for (char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    out.push_back(keep ? c : '_');
    changed = changed || !keep;
  }
  // "." / ".." survive the character filter but are path tokens, not names.
  if (out == "." || out == "..") changed = true;
  if (out.empty() || changed) {
    // Disambiguate with a digest of the ORIGINAL name: "a/b" and "a_b" both
    // sanitize to "a_b" but digest differently, so their artifacts cannot
    // collide (and an all-hostile name still yields a usable token).
    out += '-';
    out += fnv1a_hex(name).substr(0, 8);
  }
  return out;
}

std::uint64_t derive_run_seed(std::uint64_t base_seed, std::size_t run_index) {
  return sim::substream_seed(base_seed, run_index);
}

SweepRunner::SweepRunner(SweepGrid grid, SweepOptions options)
    : grid_(std::move(grid)), options_(options) {
  require(!grid_.scenarios.empty(), "SweepRunner: need at least one scenario");
  require(!grid_.policies.empty(), "SweepRunner: need at least one policy");
  require(!grid_.seeds.empty() || grid_.num_seeds >= 1,
          "SweepRunner: need at least one seed");
  resolved_seeds_ = grid_.seeds;
}

std::size_t SweepRunner::num_runs() const {
  const std::size_t seeds = resolved_seeds_.empty() ? grid_.num_seeds
                                                    : resolved_seeds_.size();
  return grid_.scenarios.size() * grid_.policies.size() * seeds;
}

SweepResult SweepRunner::run() {
  obs::Span sweep_span("sweep.run", static_cast<double>(num_runs()));

  // Bundles are built once per scenario and shared READ-ONLY by the lanes;
  // every lane copies what it mutates (engine, controller).
  std::vector<ScenarioBundle> bundles;
  bundles.reserve(grid_.scenarios.size());
  for (const auto& spec : grid_.scenarios) bundles.push_back(build(spec));

  const std::size_t num_policies = grid_.policies.size();
  const std::size_t num_seeds = resolved_seeds_.empty() ? grid_.num_seeds
                                                        : resolved_seeds_.size();
  const std::size_t total = num_runs();

  SweepResult result;
  result.manifest = obs::RunManifest::capture("sweep");
  result.manifest.seeds =
      resolved_seeds_.empty() ? std::vector<std::uint64_t>{grid_.base_seed}
                              : resolved_seeds_;
  {
    // The grid fingerprint: one digest over every scenario and policy in
    // canonical JSON, so two sweeps with equal hashes ran the same grid.
    std::string canonical;
    for (const auto& spec : grid_.scenarios) {
      canonical += to_json(spec);
      if (!spec.demand_trace_csv.empty()) {
        result.manifest.trace_paths.push_back(spec.demand_trace_csv);
      }
      if (!spec.price_trace_csv.empty()) {
        result.manifest.trace_paths.push_back(spec.price_trace_csv);
      }
    }
    for (const auto& policy : grid_.policies) canonical += to_json(policy);
    result.manifest.spec_hash = fnv1a_hex(canonical);
  }

  result.runs.resize(total);
  // Per-cell timeline sidecars need the frames captured lane-side (the
  // engine leaves each run's frames in the lane's thread-local ring).
  const bool capture_timeline = obs::timeline_enabled() && !options_.timelines_dir.empty();
  ProgressMeter progress(total,
                         options_.progress || obs::env_switch("GEOPLACE_PROGRESS").enabled,
                         options_.progress_out);
  parallel_for(
      0, total,
      [&](std::size_t index) {
        obs::Span cell_span("sweep.cell", static_cast<double>(index));
        const std::size_t scenario_index = index / (num_policies * num_seeds);
        const std::size_t policy_index = (index / num_seeds) % num_policies;
        const std::size_t seed_index = index % num_seeds;

        ScenarioSpec spec = grid_.scenarios[scenario_index];
        spec.sim.seed = resolved_seeds_.empty()
                            ? derive_run_seed(grid_.base_seed, index)
                            : resolved_seeds_[seed_index];

        PolicyHandle policy = make_policy(bundles[scenario_index], spec,
                                          grid_.policies[policy_index]);
        sim::SimulationEngine engine = make_engine(bundles[scenario_index], spec);

        RunRecord record;
        record.scenario_index = scenario_index;
        record.policy_index = policy_index;
        record.seed_index = seed_index;
        record.scenario = scenario_label(grid_.scenarios[scenario_index], scenario_index);
        record.policy = grid_.policies[policy_index].label();
        record.seed = spec.sim.seed;
        // A lane runs one cell at a time, so its thread-local audit table
        // and recorder ring give exact per-run deltas when zeroed here.
        if (obs::audit::enabled()) obs::audit::reset_thread_counts();
        if (obs::recording_enabled()) obs::ConvergenceRecorder::local().clear();
        record.summary = engine.run(policy.policy());
        if (obs::audit::enabled()) record.audit_violations = obs::audit::thread_counts();
        const bool failed =
            record.summary.unsolved_periods > 0 || !record.audit_violations.empty();
        if (failed) {
          for (std::size_t k = 0; k < record.summary.periods.size(); ++k) {
            if (!record.summary.periods[k].solved) {
              record.failed_periods.push_back(static_cast<int>(k));
            }
          }
          if (obs::recording_enabled()) {
            record.recorder_tail = obs::ConvergenceRecorder::local().tail();
          }
        }
        if (capture_timeline) record.timeline = obs::TimelineWriter::local().frames();
        if (!options_.keep_periods) {
          record.summary.periods.clear();
          record.summary.periods.shrink_to_fit();
        }
        record.wall_ms = cell_span.close();
        if (obs::metrics_enabled()) {
          auto& registry = obs::Registry::global();
          registry.counter("sweep.runs").add(1);
          registry.counter("sweep.unsolved_periods")
              .add(record.summary.unsolved_periods);
          registry.histogram("sweep.run_ms").record(record.wall_ms);
        }
        // Results land by index, never by completion order (determinism).
        result.runs[index] = std::move(record);
        progress.update(failed);
      },
      options_.max_threads);

  // Failure capture: write a ReplayBundle per failed run, sequentially and
  // in grid order, so the set of bundle files is thread-count independent.
  if (!options_.failures_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.failures_dir, ec);
    for (const RunRecord& record : result.runs) {
      const bool failed =
          record.summary.unsolved_periods > 0 || !record.audit_violations.empty();
      if (!failed) continue;
      ReplayBundle bundle;
      bundle.manifest = result.manifest;
      bundle.scenario = grid_.scenarios[record.scenario_index];
      bundle.scenario.sim.seed = record.seed;
      bundle.manifest.spec_hash = spec_hash(bundle.scenario);
      bundle.manifest.seeds = {record.seed};
      bundle.policy = grid_.policies[record.policy_index];
      bundle.seed = record.seed;
      bundle.audits_enabled = obs::audit::enabled();
      bundle.unsolved_periods = record.summary.unsolved_periods;
      bundle.failed_periods = record.failed_periods;
      bundle.audit_violations = record.audit_violations;
      for (const obs::ConvergenceSample& sample : record.recorder_tail) {
        bundle.records.push_back({sample.stream, sample.step, sample.a, sample.b, sample.c});
      }
      const std::string file = sweep_artifact_token(record.scenario) + "_" +
                               sweep_artifact_token(record.policy) + "_seed" +
                               std::to_string(record.seed) + ".replay.json";
      write_bundle(bundle, (std::filesystem::path(options_.failures_dir) / file).string());
      ++result.failure_bundles;
    }
  }

  // Timeline sidecars: one manifest-headed columnar JSONL per run, written
  // sequentially in grid order (same thread-count independence as the
  // replay bundles they sit next to).
  if (capture_timeline) {
    std::error_code ec;
    std::filesystem::create_directories(options_.timelines_dir, ec);
    for (const RunRecord& record : result.runs) {
      if (record.timeline.empty()) continue;
      obs::RunManifest manifest = result.manifest;
      manifest.seeds = {record.seed};
      const std::string file = sweep_artifact_token(record.scenario) + "_" +
                               sweep_artifact_token(record.policy) + "_seed" +
                               std::to_string(record.seed) + ".timeline.jsonl";
      std::ofstream out(std::filesystem::path(options_.timelines_dir) / file);
      if (!out) continue;
      obs::write_timeline_jsonl(out, record.timeline, &manifest);
    }
  }

  // Aggregate the seed axis into per-(scenario, policy) cells.
  result.cells.reserve(grid_.scenarios.size() * num_policies);
  std::vector<double> total_cost, resource_cost, reconfig_cost, mean_compliance,
      worst_compliance, churn, policy_wall;
  for (std::size_t si = 0; si < grid_.scenarios.size(); ++si) {
    for (std::size_t pi = 0; pi < num_policies; ++pi) {
      total_cost.clear(); resource_cost.clear(); reconfig_cost.clear();
      mean_compliance.clear(); worst_compliance.clear(); churn.clear();
      policy_wall.clear();
      SweepCell cell;
      cell.scenario = scenario_label(grid_.scenarios[si], si);
      cell.policy = grid_.policies[pi].label();
      for (std::size_t ki = 0; ki < num_seeds; ++ki) {
        const RunRecord& record = result.runs[(si * num_policies + pi) * num_seeds + ki];
        const sim::SimulationSummary& summary = record.summary;
        total_cost.push_back(summary.total_cost);
        resource_cost.push_back(summary.total_resource_cost);
        reconfig_cost.push_back(summary.total_reconfig_cost);
        mean_compliance.push_back(summary.mean_compliance);
        worst_compliance.push_back(summary.worst_compliance);
        churn.push_back(summary.total_churn);
        policy_wall.push_back(summary.policy_wall_ms);
        cell.unsolved_periods += summary.unsolved_periods;
        cell.wall_ms += record.wall_ms;
        ++cell.runs;
      }
      cell.total_cost = aggregate_of(total_cost);
      cell.resource_cost = aggregate_of(resource_cost);
      cell.reconfig_cost = aggregate_of(reconfig_cost);
      cell.mean_compliance = aggregate_of(mean_compliance);
      cell.worst_compliance = aggregate_of(worst_compliance);
      cell.churn = aggregate_of(churn);
      cell.policy_wall_ms = aggregate_of(policy_wall);
      result.cells.push_back(std::move(cell));
    }
  }

  result.wall_ms = sweep_span.close();
  result.runs_per_s =
      result.wall_ms > 0.0 ? 1000.0 * static_cast<double>(total) / result.wall_ms : 0.0;
  if (obs::metrics_enabled()) {
    obs::Registry::global().gauge("sweep.runs_per_s").set(result.runs_per_s);
  }
  return result;
}

// The JSONL export is the determinism artifact: everything after the
// manifest line must be bit-identical at any thread count, so run lines
// carry only simulation results — wall-clock timings live in the CSV
// aggregates and SweepResult::wall_ms. (The manifest line itself records
// host facts like the lane count; obs::strip_manifest_lines removes it for
// cross-thread-count identity checks.)
void SweepResult::write_jsonl(std::ostream& out) const {
  out << manifest.to_jsonl_line() << "\n";
  for (const RunRecord& record : runs) {
    const sim::SimulationSummary& summary = record.summary;
    out << "{\"scenario\":" << json_quoted(record.scenario)
        << ",\"policy\":" << json_quoted(record.policy)
        << ",\"seed\":" << record.seed << ",\"seed_index\":" << record.seed_index
        << ",\"total_cost\":" << json_number(summary.total_cost)
        << ",\"resource_cost\":" << json_number(summary.total_resource_cost)
        << ",\"reconfig_cost\":" << json_number(summary.total_reconfig_cost)
        << ",\"total_churn\":" << json_number(summary.total_churn)
        << ",\"mean_compliance\":" << json_number(summary.mean_compliance)
        << ",\"worst_compliance\":" << json_number(summary.worst_compliance)
        << ",\"unsolved_periods\":" << summary.unsolved_periods << "}\n";
  }
}

void SweepResult::write_csv(std::ostream& out) const {
  CsvWriter csv(out);
  csv.header({"scenario", "policy", "runs",
              "total_cost_mean", "total_cost_stddev", "total_cost_min", "total_cost_max",
              "resource_cost_mean", "reconfig_cost_mean",
              "mean_compliance_mean", "mean_compliance_stddev", "worst_compliance_min",
              "churn_mean", "churn_stddev", "unsolved_periods",
              "policy_wall_ms_mean", "cell_wall_ms"});
  const auto number = &CsvWriter::format_or_empty;
  for (const SweepCell& cell : cells) {
    csv.row(std::vector<std::string>{
        cell.scenario, cell.policy, std::to_string(cell.runs),
        number(cell.total_cost.mean), number(cell.total_cost.stddev),
        number(cell.total_cost.min), number(cell.total_cost.max),
        number(cell.resource_cost.mean), number(cell.reconfig_cost.mean),
        number(cell.mean_compliance.mean), number(cell.mean_compliance.stddev),
        number(cell.worst_compliance.min),
        number(cell.churn.mean), number(cell.churn.stddev),
        std::to_string(cell.unsolved_periods),
        number(cell.policy_wall_ms.mean), number(cell.wall_ms)});
  }
}

void SweepResult::write_csv_file(const std::string& path) const {
  std::ofstream out(path);
  require(out.good(), "SweepResult::write_csv_file: cannot open " + path);
  write_csv(out);
  manifest.write_sidecar(path);
}

}  // namespace gp::scenario
