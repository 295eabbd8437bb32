// gp_replay: deterministically re-runs a ReplayBundle captured by
// SweepRunner's failure capture (or assembled by hand) and checks that the
// failure reproduces bit-for-bit — same unsolved-period count, same failed
// period indices, same per-audit violation counts. Exit 0 means the bundle
// reproduces; 1 means the re-run diverged (the report shows both sides);
// 2 means the bundle could not be loaded.
//
//   gp_replay <bundle.replay.json>   replay one bundle
//   gp_replay --self-test            capture a failure, then replay it
//
// The self-test is the end-to-end drill of the flight-recorder pipeline: it
// sweeps a deliberately broken scenario (capacity far below demand, so
// every period's QP is infeasible), confirms SweepRunner wrote a bundle to
// a temp failures dir, replays that bundle from disk alone, and requires
// exact reproduction.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/audit.hpp"
#include "obs/recorder.hpp"
#include "scenario/policy.hpp"
#include "scenario/registry.hpp"
#include "scenario/serialize.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "sim/engine.hpp"

namespace {

using namespace gp;

struct ReplayOutcome {
  int unsolved_periods = 0;
  std::vector<int> failed_periods;
  std::vector<std::pair<std::string, long long>> audit_violations;
};

/// Re-runs the bundle's scenario/policy/seed exactly as the capturing sweep
/// lane did: audits per the bundle flag, thread-local counters zeroed
/// around the run.
ReplayOutcome replay(const scenario::ReplayBundle& bundle) {
  obs::audit::set_enabled(bundle.audits_enabled);
  obs::audit::reset_thread_counts();
  if (obs::recording_enabled()) obs::ConvergenceRecorder::local().clear();

  const scenario::ScenarioBundle built = scenario::build(bundle.scenario);
  scenario::PolicyHandle policy =
      scenario::make_policy(built, bundle.scenario, bundle.policy);
  sim::SimulationEngine engine = scenario::make_engine(built, bundle.scenario);
  const sim::SimulationSummary summary = engine.run(policy.policy());

  ReplayOutcome outcome;
  outcome.unsolved_periods = summary.unsolved_periods;
  for (std::size_t k = 0; k < summary.periods.size(); ++k) {
    if (!summary.periods[k].solved) outcome.failed_periods.push_back(static_cast<int>(k));
  }
  if (bundle.audits_enabled) outcome.audit_violations = obs::audit::thread_counts();
  return outcome;
}

/// The items formatted and comma-joined, "-" when there are none.
template <typename T, typename Format>
std::string join(const std::vector<T>& items, Format format) {
  std::string out;
  for (const T& item : items) {
    if (!out.empty()) out += ',';
    out += format(item);
  }
  return out.empty() ? "-" : out;
}

std::string period_text(int period) { return std::to_string(period); }

std::string violation_text(const std::pair<std::string, long long>& count) {
  return count.first + "=" + std::to_string(count.second);
}

/// Replays the bundle at `path` and reports; returns the process exit code.
int replay_file(const std::string& path) {
  scenario::ReplayBundle bundle;
  try {
    bundle = scenario::read_bundle(path);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "gp_replay: %s\n", error.what());
    return 2;
  }

  std::printf("bundle    %s\n", path.c_str());
  std::printf("captured  by=%s git=%s spec=%s seed=%llu audits=%s\n",
              bundle.manifest.tool.c_str(), bundle.manifest.git_sha.c_str(),
              bundle.manifest.spec_hash.c_str(),
              static_cast<unsigned long long>(bundle.seed),
              bundle.audits_enabled ? "on" : "off");
  std::printf("scenario  %s  policy %s  records %zu\n", bundle.scenario.name.c_str(),
              bundle.policy.label().c_str(), bundle.records.size());

  const ReplayOutcome outcome = replay(bundle);

  const bool unsolved_match = outcome.unsolved_periods == bundle.unsolved_periods;
  const bool periods_match = outcome.failed_periods == bundle.failed_periods;
  const bool audits_match = outcome.audit_violations == bundle.audit_violations;
  std::printf("unsolved  captured %d  replayed %d  %s\n", bundle.unsolved_periods,
              outcome.unsolved_periods, unsolved_match ? "MATCH" : "DIVERGED");
  std::printf("periods   captured %s  replayed %s  %s\n",
              join(bundle.failed_periods, period_text).c_str(),
              join(outcome.failed_periods, period_text).c_str(),
              periods_match ? "MATCH" : "DIVERGED");
  std::printf("audits    captured %s  replayed %s  %s\n",
              join(bundle.audit_violations, violation_text).c_str(),
              join(outcome.audit_violations, violation_text).c_str(),
              audits_match ? "MATCH" : "DIVERGED");

  const bool reproduced = unsolved_match && periods_match && audits_match;
  std::printf("%s\n", reproduced ? "REPRODUCED" : "NOT REPRODUCED");
  return reproduced ? 0 : 1;
}

int self_test() {
  // A scenario whose capacity is far below demand: every period's QP is
  // infeasible, so the ADMM path returns !solved and the feasibility /
  // conservation audits fire. Initial provisioning must be skipped —
  // min_cost_placement (correctly) throws on an infeasible environment.
  scenario::ScenarioSpec spec = scenario::preset("ablation_small");
  spec.name = "selftest_broken";
  spec.capacity = 0.5;
  spec.sim.periods = 6;
  spec.sim.provision_initial = false;

  scenario::SweepGrid grid;
  grid.scenarios = {spec};
  grid.policies = {scenario::PolicySpec{}};
  grid.base_seed = 7;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "gp_replay_selftest";
  std::filesystem::remove_all(dir);

  scenario::SweepOptions options;
  options.max_threads = 1;
  options.failures_dir = dir.string();

  obs::audit::set_enabled(true);
  obs::ConvergenceRecorder::set_enabled(true);
  const scenario::SweepResult result = scenario::SweepRunner(grid, options).run();

  require(result.failure_bundles == 1,
          "self-test: expected exactly one failure bundle, got " +
              std::to_string(result.failure_bundles));
  require(result.runs.size() == 1 && result.runs[0].summary.unsolved_periods > 0,
          "self-test: the broken scenario should have unsolved periods");
  require(!result.runs[0].recorder_tail.empty(),
          "self-test: recording was on, the bundle should carry a recorder tail");

  std::string bundle_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().string().ends_with(".replay.json")) {
      bundle_path = entry.path().string();
      break;
    }
  }
  require(!bundle_path.empty(), "self-test: no .replay.json in " + dir.string());

  // The bundle must survive a parse round trip exactly.
  const scenario::ReplayBundle bundle = scenario::read_bundle(bundle_path);
  require(scenario::to_json(bundle) ==
              scenario::to_json(scenario::bundle_from_json(scenario::to_json(bundle))),
          "self-test: bundle JSON round trip is not bit-identical");
  require(!bundle.records.empty(), "self-test: bundle lost the recorder tail");

  const int code = replay_file(bundle_path);
  require(code == 0, "self-test: replay did not reproduce the capture");

  std::filesystem::remove_all(dir);
  std::printf("gp_replay self-test passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--self-test") {
    try {
      return self_test();
    } catch (const std::exception& error) {
      std::fprintf(stderr, "gp_replay: self-test FAILED: %s\n", error.what());
      return 1;
    }
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: gp_replay <bundle.replay.json>\n"
                 "       gp_replay --self-test\n");
    return 2;
  }
  return replay_file(argv[1]);
}
