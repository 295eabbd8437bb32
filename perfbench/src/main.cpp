// geobench: runs one workload of the control-period benchmark for a time
// budget and prints one manifest-headed JSON report line (every metric it
// measured, the output checks, and the run's provenance). perfbench/run.py
// builds this binary, runs it, and turns the report into the benchmark's
// result line; see README.md.
//
//   geobench --workload request_week --seed 1 --seconds 50 --trace 0
//
// The run repeats cold-started episodes of the workload until the budget is
// spent (at least three; with --trace 1 untraced and traced episodes
// alternate, at least two of each), moving the main thread to the next CPU
// for each episode, then re-runs a short prefix with every pool user capped
// at one lane. End-to-end timing comes from the warm periods (every period
// but each episode's first) of the untraced episodes; per-layer metrics from
// the traced ones.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/manifest.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  return args;
}

/// Restricts the calling thread to `cpus`. Failures leave the affinity as
/// it was.
void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Peak resident set (VmHWM) of this process in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) { return "\"" + text + "\""; }

/// Warm-period samples of one field over a set of episodes.
template <typename Field>
std::vector<double> warm(const std::vector<const EpisodeResult*>& episodes, Field field) {
  std::vector<double> samples;
  for (const auto* episode : episodes) {
    for (std::size_t k = 1; k < episode->periods.size(); ++k) {
      samples.push_back(field(episode->periods[k]));
    }
  }
  return samples;
}

template <typename Field>
double per_episode_median(const std::vector<const EpisodeResult*>& episodes, Field field) {
  std::vector<double> values;
  for (const auto* episode : episodes) values.push_back(field(*episode));
  return median(values);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : sum(values) / static_cast<double>(values.size());
}

/// Quality fields of the first `periods` periods.
std::vector<double> quality_prefix(const EpisodeResult& episode, std::size_t periods) {
  const std::size_t count = std::min(episode.quality.size(), periods * episode.quality_stride);
  return {episode.quality.begin(), episode.quality.begin() + static_cast<std::ptrdiff_t>(count)};
}

struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, std::string>> notes;  ///< raw JSON values

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void check(const std::string& name, bool ok) { checks.push_back({name, ok}); }
  void note(const std::string& name, const std::string& json) { notes.push_back({name, json}); }

  std::string to_json() const {
    std::ostringstream out;
    out << "{\"type\":\"perfbench\"";
    for (const auto& [name, json] : notes) out << "," << quoted(name) << ":" << json;
    out << ",\"checks\":{";
    for (std::size_t i = 0; i < checks.size(); ++i) {
      out << (i ? "," : "") << quoted(checks[i].first) << ":"
          << (checks[i].second ? "true" : "false");
    }
    out << "},\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, entry] = metrics[i];
      out << (i ? "," : "") << quoted(name) << ":{\"value\":" << number(entry.first)
          << ",\"unit\":" << quoted(entry.second) << "}";
    }
    out << "}}";
    return out.str();
  }
};

void end_to_end_metrics(Report& report, const std::vector<const EpisodeResult*>& plain) {
  const auto period = warm(plain, [](const PeriodRecord& r) { return r.ledger.period_ms; });
  const Tail tail = tail_percentile(period);
  const EpisodeResult& first = *plain.front();
  // Both over every warm period of every untraced episode, as users meet them.
  report.metric("period_ms_p50", median(period), "ms");
  report.metric("period_ms_p90", tail.value, "ms");
  report.metric("setup_s", per_episode_median(plain, [](const EpisodeResult& e) {
                  return e.setup_s();
                }), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("cost_total", first.cost_total, "USD");
  report.metric("sla_compliance_mean", first.sla_mean, "frac");
  report.metric("sla_compliance_min", first.sla_min, "frac");
  report.metric("churn_total", first.churn_total, "servers");
  report.metric("solved_period_frac",
                1.0 - static_cast<double>(first.failed_periods) /
                          static_cast<double>(first.periods.size()),
                "frac");
  report.note("warm_periods", number(static_cast<double>(period.size())));
  report.note("tail_level", number(tail.level));
  report.note("tail_beyond", number(static_cast<double>(tail.beyond)));
}

void per_layer_metrics(Report& report, const std::vector<const EpisodeResult*>& plain,
                       const std::vector<const EpisodeResult*>& traced) {
  const auto field = [&traced](auto f) { return warm(traced, f); };
  const auto period = field([](const PeriodRecord& r) { return r.ledger.period_ms; });

  report.metric("scenario.build_ms",
                per_episode_median(traced, [](const EpisodeResult& e) { return e.build_ms; }),
                "ms");
  report.metric("scenario.cold_period_ms", per_episode_median(traced, [](const EpisodeResult& e) {
                  return e.cold_period_ms;
                }), "ms");

  const auto step = field([](const PeriodRecord& r) { return r.ledger.policy_ms(); });
  report.metric("control.step_ms_p50", median(step), "ms");
  report.metric("control.step_ms_p90", tail_percentile(step).value, "ms");
  report.metric("control.predict_ms_p50",
                median(field([](const PeriodRecord& r) { return r.ledger.predict_ms; })), "ms");

  const auto iters = field([](const PeriodRecord& r) { return r.iterations; });
  report.metric("qp.iters_per_period_p50", median(iters), "count");
  report.metric("qp.iters_per_period_p90", tail_percentile(iters).value, "count");
  const double admm_iters = sum(field([](const PeriodRecord& r) { return r.admm_iterations; }));
  const double admm_ms = sum(field([](const PeriodRecord& r) { return r.admm_solve_ms; }));
  report.metric("qp.ns_per_iter", admm_iters > 0.0 ? admm_ms * 1e6 / admm_iters : 0.0, "ns");
  // Whole-episode factorization counts (cold period included): a structure
  // miss is a full factorization, every other factorization a numeric one.
  const auto episode_total = [&traced](auto f) {
    return per_episode_median(traced, [f](const EpisodeResult& e) {
      double total = 0.0;
      for (const auto& r : e.periods) total += f(r);
      return total;
    });
  };
  const double full = episode_total(
      [](const PeriodRecord& r) { return r.admm_solves - r.admm_structure_hits; });
  report.metric("qp.full_factorizations", full, "count");
  report.metric("qp.refactorizations",
                episode_total([](const PeriodRecord& r) {
                  return r.admm_factorizations - (r.admm_solves - r.admm_structure_hits);
                }),
                "count");
  report.metric("qp.factorizations_skipped",
                episode_total([](const PeriodRecord& r) { return r.admm_skipped; }), "count");
  const double solves = episode_total([](const PeriodRecord& r) { return r.admm_solves; });
  const double hits = episode_total([](const PeriodRecord& r) { return r.admm_structure_hits; });
  report.metric("qp.structure_hit_ratio", solves > 0.0 ? hits / solves : 0.0, "ratio");

  const auto solves_per_period = field([](const PeriodRecord& r) { return r.admm_solves; });
  report.metric("qp.solves_per_period_p50", median(solves_per_period), "count");
  // Sharing-ADMM rounds of the block window: solves per period over blocks
  // (1 on the exact path; 0 where no MPC window is solved).
  const auto blocks = static_cast<double>(traced.front()->qp_blocks);
  report.metric("dspp.consensus_iters_per_period_p50",
                blocks > 0.0 ? median(solves_per_period) / blocks : 0.0, "count");
  report.metric("dspp.route_sla_ms_p50",
                median(field([](const PeriodRecord& r) { return r.ledger.route_sla_ms; })), "ms");

  const auto replay = field([](const PeriodRecord& r) { return r.replay_ms; });
  report.metric("sim.replay_ms_p50", median(replay), "ms");
  report.metric("sim.replay_ms_p90", tail_percentile(replay).value, "ms");
  const auto requests = field([](const PeriodRecord& r) { return r.requests; });
  report.metric("sim.requests_per_period", mean(requests), "count");
  // Replay throughput and violations from the untraced episodes.
  double plain_requests = 0.0, plain_replay_ms = 0.0, plain_violations = 0.0;
  for (const auto* e : plain) {
    plain_requests += e->requests_total;
    plain_replay_ms += e->replay_ms_total;
    plain_violations += e->violations_total;
  }
  report.metric("sim.requests_per_s",
                plain_replay_ms > 0.0 ? plain_requests / (plain_replay_ms / 1000.0) : 0.0, "1/s");
  report.metric("sim.req_violating_frac",
                plain_requests > 0.0 ? plain_violations / plain_requests : 0.0, "frac");
  report.metric("sim.engine_other_ms_p50",
                median(field([](const PeriodRecord& r) { return r.ledger.other_ms; })), "ms");

  const auto rounds = field([](const PeriodRecord& r) { return r.game_rounds; });
  report.metric("game.rounds_per_period_p50", median(rounds), "count");
  report.metric("game.rounds_per_period_p90", tail_percentile(rounds).value, "count");
  report.metric("game.best_response_ms_p50", per_episode_median(traced, [](const EpisodeResult& e) {
                  return e.best_response_ms_p50;
                }), "ms");
  report.metric("game.best_responses_per_period",
                mean(field([](const PeriodRecord& r) { return r.best_responses; })), "count");

  const double busy = sum(field([](const PeriodRecord& r) { return r.pool_busy_ms; }));
  const auto idle = field([](const PeriodRecord& r) { return r.pool_idle_ms; });
  report.metric("pool.util", busy + sum(idle) > 0.0 ? busy / (busy + sum(idle)) : 0.0, "ratio");
  report.metric("pool.queue_wait_ms_per_period",
                mean(field([](const PeriodRecord& r) { return r.pool_queue_wait_ms; })), "ms");
  report.metric("pool.idle_ms_per_period", mean(idle), "ms");
  report.metric("pool.tasks_per_period",
                mean(field([](const PeriodRecord& r) { return r.pool_tasks; })), "count");

  const auto plain_period = warm(plain, [](const PeriodRecord& r) { return r.ledger.period_ms; });
  report.metric("obs.trace_overhead_ratio", median(period) / median(plain_period), "ratio");
  const double other = sum(field([](const PeriodRecord& r) { return r.ledger.other_ms; }));
  report.metric("ledger.other_frac", other / sum(period), "frac");
  std::vector<LedgerRow> rows;
  for (const auto* e : traced) {
    for (const auto& r : e->periods) rows.push_back(r.ledger);
  }
  report.metric("ledger.max_residual_ms", max_residual_ms(rows), "ms");
}

int run(const Args& args) {
  const WorkloadInfo info = describe_workload(args.workload, args.seed);
  const auto start = Clock::now();
  const auto elapsed_s = [&start] { return ms_between(start, Clock::now()) / 1000.0; };

  // Each CPU of a shared machine runs at its own, drifting speed. The main
  // thread visits them in turn, one episode each, so every run averages over
  // all of them instead of measuring whichever CPU it happened to land on.
  // The pool starts first so its workers keep the full affinity mask; pinning
  // them as well, one CPU each beside the main thread, measured a wider spread.
  gp::ThreadPool::global();
  const std::vector<int> cpus = allowed_cpus();

  std::vector<EpisodeResult> episodes;
  std::vector<bool> traced_flags;
  const std::size_t min_episodes = args.trace ? 4 : 3;
  double episode_s_sum = 0.0;
  while (episodes.size() < min_episodes ||
         elapsed_s() + episode_s_sum / static_cast<double>(episodes.size()) <= args.seconds) {
    const bool traced = args.trace && episodes.size() % 2 == 1;
    // Traced runs alternate untraced and traced episodes; each pair shares
    // a CPU so the overhead ratio compares like with like.
    const std::size_t slot = args.trace ? episodes.size() / 2 : episodes.size();
    if (!cpus.empty()) set_affinity({cpus[slot % cpus.size()]});
    const auto episode_start = Clock::now();
    EpisodeOptions options;
    options.seed = args.seed;
    options.traced = traced;
    episodes.push_back(run_episode(args.workload, options));
    traced_flags.push_back(traced);
    episode_s_sum += ms_between(episode_start, Clock::now()) / 1000.0;
  }
  const double measured_s = elapsed_s();
  if (!cpus.empty()) set_affinity(cpus);

  // Determinism across lane counts: the prefix again, every pool user capped
  // at one lane.
  EpisodeOptions one_lane;
  one_lane.seed = args.seed;
  one_lane.periods = info.check_periods;
  one_lane.lanes = 1;
  const EpisodeResult lane_check = run_episode(args.workload, one_lane);

  std::vector<const EpisodeResult*> plain, traced;
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    (traced_flags[i] ? traced : plain).push_back(&episodes[i]);
  }
  const EpisodeResult& reference = *plain.front();

  Report report;
  bool repeat_ok = true, trace_ok = true, cost_ok = true, requests_ok = true, game_ok = true,
       timeline_ok = true;
  double max_residual = 0.0, max_rounds = 0.0;
  long long attempted = 0, failed = 0;
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const auto& e = episodes[i];
    const bool same = bit_identical(e.quality, reference.quality) &&
                      e.cost_total == reference.cost_total;
    (traced_flags[i] ? trace_ok : repeat_ok) &= same;
    cost_ok &= e.cost_total == e.cost_recomposed;
    requests_ok &= e.requests_total == e.requests_recounted;
    game_ok &= e.game_at_max_iterations == 0;
    timeline_ok &= e.timeline_consistent;
    std::vector<LedgerRow> rows;
    for (const auto& r : e.periods) {
      rows.push_back(r.ledger);
      max_rounds = std::max(max_rounds, r.game_rounds);
    }
    max_residual = std::max(max_residual, max_residual_ms(rows));
    attempted += static_cast<long long>(e.periods.size());
    failed += e.failed_periods;
  }
  const bool lanes_ok = bit_identical(quality_prefix(lane_check, info.check_periods),
                                      quality_prefix(reference, info.check_periods));
  report.check("repeat_bit_identical", repeat_ok);
  report.check("lanes_bit_identical", lanes_ok);
  report.check("cost_total_is_period_sum", cost_ok);
  report.check("requests_match_period_reports", requests_ok);
  report.check("game_below_max_iterations", game_ok);
  // Each ledger part comes from its own pair of clock reads; rounding of a
  // few sums is all that may remain.
  report.check("ledger_conserved", max_residual <= 1e-6);
  if (args.trace) {
    report.check("trace_bit_identical", trace_ok);
    report.check("timeline_matches_counters", timeline_ok);
  }

  auto manifest = gp::obs::RunManifest::capture("perfbench");
  manifest.seeds = {args.seed};
  manifest.spec_hash = info.spec_hash;
  report.note("manifest", manifest.to_json_object());
  report.note("workload", quoted(info.name));
  report.note("seed", std::to_string(args.seed));
  report.note("trace", args.trace ? "1" : "0");
  report.note("shape_hash", quoted(info.shape_hash));
  report.note("lanes", std::to_string(gp::ThreadPool::global().max_lanes()));
  report.note("episodes", std::to_string(plain.size()));
  report.note("traced_episodes", std::to_string(traced.size()));
  report.note("episode_periods", std::to_string(info.episode_periods));
  report.note("measured_s", number(measured_s));
  report.note("attempted", std::to_string(attempted));
  report.note("failed", std::to_string(failed));
  report.note("ledger_max_residual_ms", number(max_residual));
  report.note("game_rounds_max", number(max_rounds));

  end_to_end_metrics(report, plain);
  if (args.trace) per_layer_metrics(report, plain, traced);
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "geobench: %s\n", error.what());
    return 2;
  }
}
