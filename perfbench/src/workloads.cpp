#include "workloads.hpp"

#include <cmath>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "scenario/registry.hpp"
#include "scenario/serialize.hpp"
#include "sim/multi_provider.hpp"
#include "sim/request_path.hpp"

namespace perfbench {

namespace {

using gp::linalg::Vector;
namespace scenario = gp::scenario;
namespace sim = gp::sim;

// ------------------------------------------------------------ workload table

struct MpcWorkload {
  const char* name;
  std::size_t periods;
  std::size_t check_periods;
  bool requests;  ///< attach sim::simulate_requests on the observer hook
};

constexpr MpcWorkload kMpcWorkloads[] = {
    {"paper_week", 168, 24, false},
    {"request_week", 168, 24, true},
};

constexpr const char* kTenantWorkload = "tenant_day";
constexpr std::size_t kTenantPeriods = 24;
constexpr std::size_t kTenantCheckPeriods = 8;

/// Simulated seconds of request arrivals replayed per period (request_week).
constexpr double kReplaySeconds = 600.0;

/// The four tenants of tenant_day: demand scale (requests/s per inhabitant
/// at peak), SLA bound, server size and reconfiguration weight.
struct TenantParams {
  double rate_per_capita;
  double max_latency_ms;
  double server_size;
  double reconfig_cost;
};
constexpr TenantParams kTenants[] = {
    {2.0e-5, 32.0, 1.0, 0.002},
    {1.2e-5, 40.0, 2.0, 0.005},
    {1.6e-5, 50.0, 1.0, 0.010},
    {0.8e-5, 60.0, 4.0, 0.020},
};
/// Shared capacity per data center (size-weighted units).
constexpr double kTenantCapacity = 110.0;

const MpcWorkload* find_mpc(const std::string& name) {
  for (const auto& workload : kMpcWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

/// Every workload runs in the paper_full environment (4 DCs x 24 US cities,
/// noisy NHPP demand); the seed drives the noise.
scenario::ScenarioSpec paper_full_spec(std::uint64_t seed, std::size_t periods) {
  auto spec = scenario::preset("paper_full");
  spec.sim.periods = periods;
  spec.sim.seed = seed;
  return spec;
}

scenario::PolicySpec mpc_policy() {
  scenario::PolicySpec policy;
  policy.kind = "mpc";
  policy.demand_predictor.kind = "seasonal";
  policy.price_predictor.kind = "seasonal";
  return policy;
}

std::string tenant_json() {
  std::ostringstream json;
  json.precision(17);
  json << "{\"capacity\":" << kTenantCapacity << ",\"tenants\":[";
  for (std::size_t i = 0; i < std::size(kTenants); ++i) {
    const auto& t = kTenants[i];
    json << (i ? "," : "") << '[' << t.rate_per_capita << ',' << t.max_latency_ms << ','
         << t.server_size << ',' << t.reconfig_cost << ']';
  }
  json << "]}";
  return json.str();
}

std::string workload_json(const std::string& name, std::uint64_t seed) {
  if (const auto* workload = find_mpc(name)) {
    return "{\"workload\":\"" + name + "\",\"scenario\":" +
           scenario::to_json(paper_full_spec(seed, workload->periods)) +
           ",\"policy\":" + scenario::to_json(mpc_policy()) +
           ",\"replay_s\":" + std::to_string(workload->requests ? kReplaySeconds : 0.0) + "}";
  }
  if (name == kTenantWorkload) {
    return "{\"workload\":\"" + name + "\",\"scenario\":" +
           scenario::to_json(paper_full_spec(seed, kTenantPeriods)) + ",\"game\":" + tenant_json() +
           "}";
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ------------------------------------------------------------ traced counters

/// Registry counters and pool telemetry read at period boundaries of a
/// traced episode. References are looked up once (registry metrics are never
/// removed).
class CounterProbe {
 public:
  struct Snapshot {
    double solves = 0.0, iterations = 0.0, factorizations = 0.0, structure_hits = 0.0,
           skipped = 0.0, solve_ms = 0.0, best_responses = 0.0;
    gp::PoolTelemetry pool;
  };

  CounterProbe()
      : solves_(registry().counter("admm.solves")),
        iterations_(registry().counter("admm.iterations")),
        factorizations_(registry().counter("admm.factorizations")),
        structure_hits_(registry().counter("admm.structure_hits")),
        skipped_(registry().counter("admm.factorizations_skipped")),
        solve_ms_(registry().histogram("admm.solve_ms")),
        best_response_ms_(registry().histogram("game.best_response_ms")) {}

  Snapshot read() const {
    Snapshot s;
    s.solves = static_cast<double>(solves_.value());
    s.iterations = static_cast<double>(iterations_.value());
    s.factorizations = static_cast<double>(factorizations_.value());
    s.structure_hits = static_cast<double>(structure_hits_.value());
    s.skipped = static_cast<double>(skipped_.value());
    s.solve_ms = solve_ms_.sum();
    s.best_responses = static_cast<double>(best_response_ms_.count());
    s.pool = gp::ThreadPool::global().telemetry();
    return s;
  }

  double best_response_ms_p50() const { return best_response_ms_.percentile(50.0); }

  static void fill_delta(const Snapshot& from, const Snapshot& to, PeriodRecord& record) {
    record.admm_solves = to.solves - from.solves;
    record.admm_iterations = to.iterations - from.iterations;
    record.admm_factorizations = to.factorizations - from.factorizations;
    record.admm_structure_hits = to.structure_hits - from.structure_hits;
    record.admm_skipped = to.skipped - from.skipped;
    record.admm_solve_ms = to.solve_ms - from.solve_ms;
    record.best_responses = to.best_responses - from.best_responses;
    const auto ms = [](unsigned long long a, unsigned long long b) {
      return static_cast<double>(b - a) / 1e6;
    };
    record.pool_busy_ms = ms(from.pool.busy_ns, to.pool.busy_ns);
    record.pool_idle_ms = ms(from.pool.idle_ns, to.pool.idle_ns);
    record.pool_queue_wait_ms = ms(from.pool.queue_wait_ns, to.pool.queue_wait_ns);
    record.pool_tasks = static_cast<double>(to.pool.tasks - from.pool.tasks);
  }

 private:
  static gp::obs::Registry& registry() { return gp::obs::Registry::global(); }

  gp::obs::Counter& solves_;
  gp::obs::Counter& iterations_;
  gp::obs::Counter& factorizations_;
  gp::obs::Counter& structure_hits_;
  gp::obs::Counter& skipped_;
  gp::obs::Histogram& solve_ms_;
  gp::obs::Histogram& best_response_ms_;
};

/// Arms the in-library observability channels for one traced episode and
/// restores the disarmed state on every exit path.
class TraceScope {
 public:
  explicit TraceScope(bool on) : on_(on) {
    if (!on_) return;
    gp::obs::Registry::reset_all();
    gp::obs::Registry::global().set_enabled(true);
    gp::obs::TimelineWriter::set_enabled(true);
    gp::ThreadPool::global().set_telemetry_enabled(true);
  }
  ~TraceScope() {
    if (!on_) return;
    gp::obs::Registry::global().set_enabled(false);
    gp::obs::TimelineWriter::set_enabled(false);
    gp::ThreadPool::global().set_telemetry_enabled(false);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool on_;
};

/// Per-period records from the stamps and (traced) counter snapshots; the
/// snapshot list holds one entry per period start plus one at run end.
std::vector<PeriodRecord> period_records(const std::vector<PeriodStamps>& stamps,
                                         Clock::time_point run_end,
                                         const std::vector<CounterProbe::Snapshot>& snapshots) {
  const auto rows = ledger(stamps, run_end);
  std::vector<PeriodRecord> records(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    records[k].ledger = rows[k];
    if (snapshots.size() == rows.size() + 1) {
      CounterProbe::fill_delta(snapshots[k], snapshots[k + 1], records[k]);
    }
  }
  return records;
}

double cold_period_ms(Clock::time_point run_start, const std::vector<PeriodStamps>& stamps,
                      Clock::time_point run_end) {
  return ms_between(run_start, stamps.size() > 1 ? stamps[1].begin : run_end);
}

// ------------------------------------------------------------ MPC episodes

EpisodeResult run_mpc_episode(const MpcWorkload& workload, const EpisodeOptions& options) {
  const std::size_t periods = options.periods ? options.periods : workload.periods;
  const auto spec = paper_full_spec(options.seed, periods);
  const auto policy_spec = mpc_policy();
  EpisodeResult result;
  result.qp_blocks = policy_spec.qp_blocks;

  const auto t_build = Clock::now();
  const scenario::ScenarioBundle bundle = scenario::build(spec);
  const auto t_construct = Clock::now();
  PredictClock predict_clock;
  auto controller = make_timed_controller(bundle, policy_spec, predict_clock);
  sim::SimulationEngine engine = scenario::make_engine(bundle, spec);
  const auto t_constructed = Clock::now();
  result.build_ms = ms_between(t_build, t_construct);
  result.construct_ms = ms_between(t_construct, t_constructed);

  const TraceScope trace(options.traced);
  std::optional<CounterProbe> probe;
  if (options.traced) probe.emplace();
  std::vector<CounterProbe::Snapshot> snapshots;
  std::vector<PeriodStamps> stamps;
  std::vector<int> iterations;
  stamps.reserve(periods);
  iterations.reserve(periods);
  const auto policy = recording_policy(*controller, predict_clock, stamps, iterations, [&] {
    if (probe) snapshots.push_back(probe->read());
  });

  std::vector<double> replay_ms(periods, 0.0), requests(periods, 0.0),
      violations(periods, 0.0);
  const sim::PeriodObserver observer = [&](const sim::PeriodContext& ctx) {
    PeriodStamps& stamp = stamps.back();
    stamp.observer_begin = Clock::now();
    if (workload.requests) {
      sim::RequestSimOptions replay;
      replay.duration_s = kReplaySeconds;
      replay.seed = sim::substream_seed(options.seed, ctx.period);
      replay.max_lanes = options.lanes;
      const auto replay_start = Clock::now();
      const sim::RequestSimReport report =
          sim::simulate_requests(engine.model(), engine.pairs(), ctx.allocation,
                                 ctx.assignment, replay);
      replay_ms[ctx.period] = ms_between(replay_start, Clock::now());
      requests[ctx.period] = static_cast<double>(report.simulated_requests);
      result.requests_total += static_cast<double>(report.simulated_requests);
      for (const auto& pair : report.pairs) {
        result.requests_recounted += static_cast<double>(pair.requests);
        violations[ctx.period] += static_cast<double>(pair.violations);
      }
    }
    stamp.observer_end = Clock::now();
  };

  const auto run_start = Clock::now();
  const sim::SimulationSummary summary = engine.run(policy, observer);
  const auto run_end = Clock::now();
  if (probe) snapshots.push_back(probe->read());

  result.cold_period_ms = cold_period_ms(run_start, stamps, run_end);
  result.periods = period_records(stamps, run_end, snapshots);
  result.quality_stride = 8;
  double resource = 0.0, reconfig = 0.0;
  for (std::size_t k = 0; k < summary.periods.size(); ++k) {
    const auto& period = summary.periods[k];
    auto& record = result.periods[k];
    record.iterations = iterations[k];
    record.replay_ms = replay_ms[k];
    record.requests = requests[k];
    result.replay_ms_total += replay_ms[k];
    result.violations_total += violations[k];
    if (!period.solved) ++result.failed_periods;
    resource += period.resource_cost;
    reconfig += period.reconfig_cost;
    result.quality.insert(result.quality.end(),
                          {period.resource_cost, period.reconfig_cost, period.sla_compliance,
                           period.total_servers, period.solved ? 1.0 : 0.0,
                           static_cast<double>(iterations[k]), requests[k], violations[k]});
  }
  result.cost_total = summary.total_cost;
  result.cost_recomposed = resource + reconfig;
  result.sla_mean = summary.mean_compliance;
  result.sla_min = summary.worst_compliance;
  result.churn_total = summary.total_churn;

  if (options.traced) {
    // The timeline's per-period solver effort must match the registry deltas
    // taken from outside: both channels observe the same solves.
    const auto frames = gp::obs::TimelineWriter::local().frames();
    result.timeline_consistent = frames.size() == result.periods.size();
    for (std::size_t k = 0; result.timeline_consistent && k < frames.size(); ++k) {
      result.timeline_consistent =
          frames[k].solver_iterations == result.periods[k].admm_iterations &&
          frames[k].solved == result.quality[k * result.quality_stride + 4];
    }
  }
  return result;
}

// ------------------------------------------------------------ tenant episodes

EpisodeResult run_tenant_episode(const EpisodeOptions& options) {
  const std::size_t periods = options.periods ? options.periods : kTenantPeriods;
  const auto spec = paper_full_spec(options.seed, periods);
  EpisodeResult result;
  PredictClock predict_clock;
  std::vector<PeriodStamps> stamps;
  stamps.reserve(periods);
  const TraceScope trace(options.traced);
  std::optional<CounterProbe> probe;
  if (options.traced) probe.emplace();
  std::vector<CounterProbe::Snapshot> snapshots;
  // Tenant 0 observes first in every period: its observe() marks the start.
  double predict_at_begin = 0.0;
  const auto on_period = [&](Clock::time_point now) {
    if (!stamps.empty()) stamps.back().predict_ms = predict_clock.ms - predict_at_begin;
    predict_at_begin = predict_clock.ms;
    PeriodStamps stamp;
    stamp.begin = now;
    stamps.push_back(stamp);
    if (probe) snapshots.push_back(probe->read());
  };

  const auto t_build = Clock::now();
  const scenario::ScenarioBundle bundle = scenario::build(spec);
  std::vector<sim::TenantConfig> tenants;
  for (std::size_t i = 0; i < std::size(kTenants); ++i) {
    const auto& params = kTenants[i];
    gp::dspp::DsppModel model = bundle.model;
    model.sla.max_latency_ms = params.max_latency_ms;
    model.server_size = params.server_size;
    model.reconfig_cost.assign(model.num_datacenters(), params.reconfig_cost);
    model.capacity.assign(model.num_datacenters(), 1e12);  // shared quotas govern
    scenario::PredictorSpec ar;
    ar.kind = "ar";
    auto predictor = std::make_unique<TimedPredictor>(
        scenario::make_predictor(ar), predict_clock,
        i == 0 ? std::function<void(Clock::time_point)>(on_period) : nullptr);
    tenants.push_back(sim::TenantConfig{
        std::move(model),
        gp::workload::DemandModel::from_cities(bundle.cities, params.rate_per_capita,
                                               gp::workload::DiurnalProfile()),
        std::move(predictor)});
  }
  const auto t_construct = Clock::now();
  sim::MultiTenantConfig config;
  config.periods = periods;
  config.period_hours = spec.sim.period_hours;
  config.noisy_demand = true;
  config.seed = options.seed;
  config.game.num_threads = options.lanes;
  sim::MultiTenantSimulation simulation(
      std::move(tenants), bundle.prices,
      Vector(bundle.model.num_datacenters(), kTenantCapacity), config);
  const auto t_constructed = Clock::now();
  result.build_ms = ms_between(t_build, t_construct);
  result.construct_ms = ms_between(t_construct, t_constructed);

  const auto run_start = Clock::now();
  const sim::MultiTenantSummary summary = simulation.run();
  const auto run_end = Clock::now();
  if (!stamps.empty()) stamps.back().predict_ms = predict_clock.ms - predict_at_begin;
  if (probe) snapshots.push_back(probe->read());
  // The negotiation is one opaque call: the whole period after forecasting
  // is "decide".
  for (std::size_t k = 0; k < stamps.size(); ++k) {
    const auto end = k + 1 < stamps.size() ? stamps[k + 1].begin : run_end;
    stamps[k].policy_end = stamps[k].observer_begin = stamps[k].observer_end = end;
  }
  result.cold_period_ms = cold_period_ms(run_start, stamps, run_end);
  result.periods = period_records(stamps, run_end, snapshots);
  if (probe) result.best_response_ms_p50 = probe->best_response_ms_p50();

  const std::size_t n = summary.tenants.size();
  result.quality_stride = 4 * n + 2;
  double served_sum = 0.0;
  result.sla_min = 1.0;
  std::vector<double> previous_servers(n, 0.0);
  for (std::size_t k = 0; k < periods; ++k) {
    auto& record = result.periods[k];
    record.game_rounds = summary.game_iterations[k];
    record.iterations = record.admm_iterations;
    if (!summary.game_converged[k]) ++result.failed_periods;
    if (summary.game_iterations[k] >= config.game.max_iterations) {
      ++result.game_at_max_iterations;
    }
    double demand = 0.0, unserved = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& m = summary.tenants[i][k];
      result.cost_recomposed += m.cost;
      demand += m.demand;
      unserved += m.unserved;
      if (k > 0) result.churn_total += std::abs(m.servers - previous_servers[i]);
      previous_servers[i] = m.servers;
      result.quality.insert(result.quality.end(), {m.cost, m.servers, m.unserved, m.demand});
    }
    const double served = demand > 0.0 ? 1.0 - std::min(unserved, demand) / demand : 1.0;
    served_sum += served;
    result.sla_min = std::min(result.sla_min, served);
    result.quality.insert(result.quality.end(),
                          {static_cast<double>(summary.game_iterations[k]),
                           summary.game_converged[k] ? 1.0 : 0.0});
  }
  result.cost_total = summary.total_cost;
  result.sla_mean = served_sum / static_cast<double>(periods);
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> all;
    for (const auto& workload : kMpcWorkloads) all.emplace_back(workload.name);
    all.emplace_back(kTenantWorkload);
    return all;
  }();
  return names;
}

WorkloadInfo describe_workload(const std::string& name, std::uint64_t seed) {
  WorkloadInfo info;
  info.name = name;
  info.spec_hash = scenario::fnv1a_hex(workload_json(name, seed));
  info.shape_hash = scenario::fnv1a_hex(workload_json(name, 0));
  if (const auto* workload = find_mpc(name)) {
    info.episode_periods = workload->periods;
    info.check_periods = workload->check_periods;
  } else {
    info.episode_periods = kTenantPeriods;
    info.check_periods = kTenantCheckPeriods;
  }
  return info;
}

EpisodeResult run_episode(const std::string& workload, const EpisodeOptions& options) {
  if (const auto* mpc = find_mpc(workload)) return run_mpc_episode(*mpc, options);
  if (workload == kTenantWorkload) return run_tenant_episode(options);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

std::unique_ptr<gp::control::MpcController> make_timed_controller(
    const scenario::ScenarioBundle& bundle, const scenario::PolicySpec& policy,
    PredictClock& clock) {
  if (policy.kind != "mpc" || policy.demand_predictor.kind == "oracle" ||
      policy.price_predictor.kind == "oracle" || policy.integerized) {
    throw std::invalid_argument("make_timed_controller: plain MPC policies only");
  }
  gp::control::MpcSettings settings;
  settings.horizon = policy.horizon;
  settings.soft_demand_penalty = policy.soft_demand_penalty;
  settings.reuse_solver_state = policy.reuse_solver_state;
  settings.qp_blocks = policy.qp_blocks;
  settings.qp_block_lanes = policy.qp_block_lanes;
  return std::make_unique<gp::control::MpcController>(
      bundle.model, settings,
      std::make_unique<TimedPredictor>(scenario::make_predictor(policy.demand_predictor), clock),
      std::make_unique<TimedPredictor>(scenario::make_predictor(policy.price_predictor), clock));
}

gp::sim::PlacementPolicy recording_policy(gp::control::MpcController& controller,
                                          PredictClock& clock,
                                          std::vector<PeriodStamps>& stamps,
                                          std::vector<int>& iterations,
                                          std::function<void()> on_begin) {
  return [&controller, &clock, &stamps, &iterations, on_begin = std::move(on_begin)](
             const Vector& state, const Vector& demand, const Vector& price) {
    PeriodStamps stamp;
    stamp.begin = Clock::now();
    if (on_begin) on_begin();
    const double predict_before = clock.ms;
    const auto result = controller.step(state, demand, price);
    stamp.policy_end = Clock::now();
    stamp.observer_begin = stamp.observer_end = stamp.policy_end;
    stamp.predict_ms = clock.ms - predict_before;
    stamps.push_back(stamp);
    iterations.push_back(result.solver_iterations);
    return sim::PolicyOutcome{result.solved, result.control, result.next_state};
  };
}

}  // namespace perfbench
