#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "dspp/integer.hpp"
#include "dspp/provisioning.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace gp::sim {

using linalg::Vector;

PlacementPolicy integerized(PlacementPolicy inner, const dspp::DsppModel& model,
                            const dspp::PairIndex& pairs) {
  return [inner = std::move(inner), &model, &pairs](const Vector& state, const Vector& demand,
                                                    const Vector& price) {
    PolicyOutcome outcome = inner(state, demand, price);
    if (!outcome.solved) return outcome;
    const auto rounded =
        dspp::round_up_allocation(model, pairs, outcome.next_state, demand, price);
    if (rounded.feasible) {
      outcome.next_state = rounded.allocation;
      outcome.control = linalg::sub(outcome.next_state, state);
    }
    return outcome;
  };
}

void SimulationSummary::write_csv(std::ostream& out) const {
  CsvWriter csv(out);
  std::vector<std::string> header{"utc_hour",     "total_demand",  "total_servers",
                                  "resource_cost", "reconfig_cost", "sla_compliance",
                                  "mean_latency_ms", "unserved_rate", "solved"};
  if (!periods.empty()) {
    for (std::size_t l = 0; l < periods.front().servers_per_dc.size(); ++l) {
      header.push_back("servers_dc" + std::to_string(l));
    }
  }
  csv.header(header);
  // Unsolved periods carry NaN latencies/compliance, written as empty cells.
  const auto cell = &CsvWriter::format_or_empty;
  for (const auto& period : periods) {
    std::vector<std::string> row{cell(period.utc_hour),      cell(period.total_demand),
                                 cell(period.total_servers), cell(period.resource_cost),
                                 cell(period.reconfig_cost), cell(period.sla_compliance),
                                 cell(period.mean_latency_ms), cell(period.unserved_rate),
                                 period.solved ? "1" : "0"};
    for (double s : period.servers_per_dc) row.push_back(cell(s));
    csv.row(row);
  }
}

SimulationEngine::SimulationEngine(dspp::DsppModel model, workload::DemandModel demand,
                                   workload::ServerPriceModel prices, SimulationConfig config)
    : model_(std::move(model)),
      pairs_(model_),
      demand_(std::move(demand)),
      prices_(std::move(prices)),
      config_(config) {
  require(config_.periods >= 1, "SimulationEngine: need at least one period");
  require(config_.period_hours > 0.0, "SimulationEngine: period length must be > 0");
  require(demand_.num_access_networks() == model_.num_access_networks(),
          "SimulationEngine: demand model V != network V");
  require(prices_.num_datacenters() == model_.num_datacenters(),
          "SimulationEngine: price model L != network L");
}

Vector SimulationEngine::observe_demand(double utc_hour, Rng& rng) const {
  if (!config_.noisy_demand) return demand_.mean_rates(utc_hour + config_.period_hours / 2.0);
  Vector rates(demand_.num_access_networks());
  for (std::size_t v = 0; v < rates.size(); ++v) {
    rates[v] = demand_.sample_rate(v, utc_hour, config_.period_hours, rng);
  }
  return rates;
}

Vector SimulationEngine::observe_price(double utc_hour) const {
  Vector price = prices_.server_prices(utc_hour + config_.period_hours / 2.0);
  linalg::scale(config_.period_hours, price);
  return price;
}

SimulationSummary SimulationEngine::run(const PlacementPolicy& policy,
                                        const PeriodObserver& observer) {
  obs::Span run_span("sim.run", static_cast<double>(config_.periods));
  // Timeline recording protocol (obs/timeline.hpp): the engine owns the
  // period loop, so it clears this thread's ring here — after run() the
  // ring holds exactly this run's frames, which is what sweep lanes
  // snapshot into per-cell sidecars. One relaxed load when disabled.
  const bool timeline_on = obs::timeline_enabled();
  if (timeline_on) obs::TimelineWriter::local().clear();
  // Arm the global pool's lane accounting for the duration of this run when
  // any observer wants the numbers (pool_* timeline columns, pool.*
  // registry metrics). The prior state is restored on every exit path so a
  // run observed by neither keeps the pool at its one-relaxed-load cost.
  const bool pool_on = timeline_on || obs::metrics_enabled();
  ThreadPool& pool = ThreadPool::global();
  struct PoolTelemetryGuard {
    ThreadPool& pool;
    bool disarm_on_exit;
    ~PoolTelemetryGuard() {
      if (disarm_on_exit) pool.set_telemetry_enabled(false);
    }
  } pool_guard{pool, pool_on && !pool.telemetry_enabled()};
  if (pool_on) pool.set_telemetry_enabled(true);
  const PoolTelemetry pool_run_start = pool_on ? pool.telemetry() : PoolTelemetry{};
  Rng rng(config_.seed);
  SimulationSummary summary;
  summary.periods.reserve(config_.periods);

  // Pre-sample one consistent demand/price trace for periods 0..K (each
  // period's observation is used both as "current" at step k and as the
  // realized demand the step-(k-1) allocation serves).
  std::vector<Vector> demand_trace, price_trace;
  for (std::size_t k = 0; k <= config_.periods; ++k) {
    const double hour = config_.utc_start_hour + static_cast<double>(k) * config_.period_hours;
    demand_trace.push_back(observe_demand(hour, rng));
    Vector price = observe_price(config_.freeze_prices ? config_.utc_start_hour : hour);
    if (config_.price_noise_std > 0.0) {
      for (double& p : price) {
        p = std::max(0.1 * p, p * (1.0 + rng.normal(0.0, config_.price_noise_std)));
      }
    }
    price_trace.push_back(std::move(price));
  }

  // Initial state: cheapest placement for the first observed demand.
  Vector state(pairs_.num_pairs(), 0.0);
  if (config_.provision_initial) {
    obs::Span provision_span("sim.provision_initial");
    qp::AdmmSolver solver;
    state = dspp::min_cost_placement(model_, pairs_, demand_trace[0], price_trace[0], solver);
    linalg::scale(config_.initial_overprovision, state);
  }

  double compliance_sum = 0.0;
  for (std::size_t k = 0; k < config_.periods; ++k) {
    obs::Span period_span("sim.period", static_cast<double>(k));
    const PoolTelemetry pool_period_start = timeline_on ? pool.telemetry() : PoolTelemetry{};
    const double hour = config_.utc_start_hour + static_cast<double>(k) * config_.period_hours;
    const Vector& demand = demand_trace[k];
    const Vector& price = price_trace[k];

    // Open the period's telemetry frame BEFORE the policy call so the
    // layers underneath (MPC forecast error, QP solver effort) contribute
    // their fields through obs::timeline_frame() while it is open.
    obs::TelemetryFrame* frame =
        timeline_on ? &obs::TimelineWriter::local().begin(static_cast<long long>(k), hour)
                    : nullptr;
    if (frame != nullptr) frame->forecast_rel_err = -1.0;  // -1: no forecast seen

    // Policy wall time: the span reads steady_clock unconditionally, so the
    // accounting is identical whether or not tracing/metrics are enabled.
    obs::Span policy_span("sim.policy");
    const PolicyOutcome outcome = policy(state, demand, price);
    const double policy_ms = policy_span.close();
    summary.policy_wall_ms += policy_ms;
    if (obs::metrics_enabled()) {
      obs::Registry::global().histogram("sim.policy_ms").record(policy_ms);
    }
    PeriodMetrics metrics;
    metrics.utc_hour = hour;
    metrics.demand = demand;
    for (double d : demand) metrics.total_demand += d;
    metrics.solved = outcome.solved;
    if (!outcome.solved) {
      ++summary.unsolved_periods;
      if (obs::recording_enabled()) {
        obs::ConvergenceRecorder::local().push("sim.unsolved_period",
                                               static_cast<long long>(k), hour);
      }
    }

    const Vector next_state = outcome.solved ? outcome.next_state : state;
    const Vector control = outcome.solved ? outcome.control
                                          : Vector(pairs_.num_pairs(), 0.0);

    // The reconfigured allocation serves the NEXT period's demand; cost it
    // at next period's prices (the p_k x_k term of eq. (3)).
    const Vector& next_demand = demand_trace[k + 1];
    const Vector& next_price = price_trace[k + 1];

    metrics.servers_per_dc.assign(model_.num_datacenters(), 0.0);
    for (std::size_t pair = 0; pair < pairs_.num_pairs(); ++pair) {
      metrics.servers_per_dc[pairs_.datacenter_of(pair)] += next_state[pair];
      metrics.total_servers += next_state[pair];
      metrics.resource_cost += next_price[pairs_.datacenter_of(pair)] * next_state[pair];
      const double c = model_.reconfig_cost[pairs_.datacenter_of(pair)];
      metrics.reconfig_cost += c * control[pair] * control[pair];
      summary.total_churn += std::abs(control[pair]);
    }
    if (obs::audit::enabled()) {
      // Capacity conservation: the allocation the engine carries into the
      // next period must fit every DC (an unsolved period that keeps an
      // oversized previous state shows up here).
      double worst_excess = 0.0, worst_capacity = 0.0;
      for (std::size_t l = 0; l < model_.num_datacenters(); ++l) {
        const double excess = metrics.servers_per_dc[l] - model_.capacity[l];
        if (excess > worst_excess) {
          worst_excess = excess;
          worst_capacity = model_.capacity[l];
        }
      }
      const double tolerance = 1e-6 * (1.0 + worst_capacity);
      obs::audit::check("capacity_conservation", worst_excess <= tolerance, worst_excess,
                        tolerance);
    }

    // The assignment outlives the SLA span: the period observer (e.g. the
    // request-level simulator) replays the same routing empirically.
    obs::Span sla_span("sim.sla");
    const dspp::Assignment assignment = dspp::assign_demand(pairs_, next_state, next_demand);
    {
      const dspp::SlaReport report = dspp::evaluate_sla(model_, pairs_, next_state, assignment);
      metrics.sla_compliance = report.compliance();
      metrics.mean_latency_ms = report.mean_latency_ms;
      metrics.unserved_rate = assignment.total_unserved();
      if (frame != nullptr) {
        frame->sla_violating_rate = report.violating_rate;
        frame->overloaded_pairs = static_cast<double>(report.overloaded_pairs);
      }
    }
    const double sla_ms = sla_span.close();
    if (frame != nullptr) frame->sla_ms = sla_ms;
    if (frame != nullptr) {
      frame->demand_total = metrics.total_demand;
      double served = 0.0;
      for (const double d : next_demand) served += d;
      frame->demand_served_total = served;
      frame->servers_total = metrics.total_servers;
      double max_dc = 0.0, active = 0.0;
      for (double s : metrics.servers_per_dc) {
        if (s > 1e-9) active += 1.0;
        if (s > max_dc) max_dc = s;
      }
      frame->dc_active = active;
      frame->dc_max_share = metrics.total_servers > 0.0 ? max_dc / metrics.total_servers : 0.0;
      frame->cost_resource = metrics.resource_cost;
      frame->cost_reconfig = metrics.reconfig_cost;
      frame->sla_compliance = metrics.sla_compliance;
      frame->mean_latency_ms = metrics.mean_latency_ms;
      frame->unserved_rate = metrics.unserved_rate;
      frame->solved = metrics.solved ? 1.0 : 0.0;
      frame->policy_ms = policy_ms;
    }

    // Observer runs after the analytic evaluation but BEFORE the frame
    // commit, so it may contribute fields (e.g. the req_* columns) via
    // obs::timeline_frame(). Empty observer: one branch.
    if (observer) {
      observer(PeriodContext{k, hour, next_state, next_demand, assignment, metrics});
    }

    if (frame != nullptr) {
      // Pool lane-utilization deltas over the whole period, including the
      // observer's work (the request-level simulator runs sharded lanes).
      // Under a concurrent sweep the deltas are pool-wide, not lane-local —
      // they attribute everything the pool did while this period was open.
      const PoolTelemetry pool_now = pool.telemetry();
      const double busy_ms =
          static_cast<double>(pool_now.busy_ns - pool_period_start.busy_ns) / 1e6;
      const double idle_ms =
          static_cast<double>(pool_now.idle_ns - pool_period_start.idle_ns) / 1e6;
      frame->pool_busy_ms = busy_ms;
      frame->pool_idle_ms = idle_ms;
      frame->pool_queue_wait_ms =
          static_cast<double>(pool_now.queue_wait_ns - pool_period_start.queue_wait_ns) / 1e6;
      frame->pool_tasks = static_cast<double>(pool_now.tasks - pool_period_start.tasks);
      frame->pool_util = busy_ms + idle_ms > 0.0 ? busy_ms / (busy_ms + idle_ms) : 0.0;
      frame->period_ms = period_span.elapsed_ms();
      obs::TimelineWriter::local().commit();
    }

    summary.total_resource_cost += metrics.resource_cost;
    summary.total_reconfig_cost += metrics.reconfig_cost;
    compliance_sum += metrics.sla_compliance;
    summary.worst_compliance = std::min(summary.worst_compliance, metrics.sla_compliance);
    summary.periods.push_back(std::move(metrics));
    state = next_state;
  }
  summary.total_cost = summary.total_resource_cost + summary.total_reconfig_cost;
  summary.mean_compliance = compliance_sum / static_cast<double>(config_.periods);
  if (obs::audit::enabled()) {
    // Cost-accounting identity of eq. (3): the reported total must equal
    // the sum of the per-period hosting/energy and reconfiguration terms.
    double resource = 0.0, reconfig = 0.0;
    for (const auto& period : summary.periods) {
      resource += period.resource_cost;
      reconfig += period.reconfig_cost;
    }
    const double recomposed = resource + reconfig;
    const double tolerance = 1e-9 * (1.0 + std::abs(recomposed));
    obs::audit::check("cost_identity", std::abs(summary.total_cost - recomposed) <= tolerance,
                      summary.total_cost, recomposed);
  }
  if (obs::metrics_enabled()) {
    auto& registry = obs::Registry::global();
    registry.counter("sim.runs").add(1);
    registry.counter("sim.periods").add(static_cast<long long>(config_.periods));
    registry.counter("sim.unsolved_periods").add(summary.unsolved_periods);
    registry.histogram("sim.run_ms").record(run_span.elapsed_ms());
    // Whole-run pool telemetry: one histogram sample per run (so sweeps get
    // a distribution), plus a cumulative chunk counter and a utilization
    // gauge for the most recent run.
    const PoolTelemetry pool_end = pool.telemetry();
    const double pool_busy_ms =
        static_cast<double>(pool_end.busy_ns - pool_run_start.busy_ns) / 1e6;
    const double pool_idle_ms =
        static_cast<double>(pool_end.idle_ns - pool_run_start.idle_ns) / 1e6;
    registry.histogram("pool.busy_ms").record(pool_busy_ms);
    registry.histogram("pool.idle_ms").record(pool_idle_ms);
    registry.histogram("pool.queue_wait_ms")
        .record(static_cast<double>(pool_end.queue_wait_ns - pool_run_start.queue_wait_ns) /
                1e6);
    registry.counter("pool.tasks")
        .add(static_cast<long long>(pool_end.tasks - pool_run_start.tasks));
    registry.gauge("pool.util")
        .set(pool_busy_ms + pool_idle_ms > 0.0 ? pool_busy_ms / (pool_busy_ms + pool_idle_ms)
                                               : 0.0);
  }
  // GEOPLACE_TIMELINE=<path>: append this run's timeline as one columnar
  // segment (no-op under the plain on/off form).
  if (timeline_on) obs::TimelineWriter::local().flush();
  return summary;
}

}  // namespace gp::sim
