#include "scenario/registry.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"
#include "scenario/trace.hpp"

namespace gp::scenario {

namespace {

using PresetMap = std::map<std::string, ScenarioSpec, std::less<>>;

ScenarioSpec named(std::string name, ScenarioSpec spec) {
  spec.name = std::move(name);
  return spec;
}

PresetMap build_presets() {
  PresetMap presets;
  auto add = [&presets](const ScenarioSpec& spec) { presets.emplace(spec.name, spec); };

  // The full evaluation environment: 4 named data centers x 24 cities over
  // two noisy days (the geo_load_balancing / perf study setup).
  {
    ScenarioSpec spec = section7_spec(4, 24, 2e-5);
    spec.sim.periods = 48;
    spec.sim.noisy_demand = true;
    spec.sim.seed = 2026;
    add(named("paper_full", spec));
  }

  // Fig. 4: one DC (San Jose) serving one access network (New York) under
  // diurnal demand; the SLA is relaxed so the distant pair is feasible.
  {
    ScenarioSpec spec = section7_spec(1, 1, 2e-5);
    spec.max_latency_ms = 60.0;
    spec.reconfig_cost = 0.01;
    spec.sim.periods = 48;
    spec.sim.period_hours = 0.5;
    spec.sim.noisy_demand = true;
    spec.sim.seed = 42;
    add(named("fig04", spec));
  }

  // Fig. 5: three regional DCs, constant demand, price-driven shifts.
  {
    ScenarioSpec spec = section7_spec(3, 12, 2e-5, workload::DiurnalProfile(1.0, 1.0));
    spec.sim.periods = 48;
    spec.sim.seed = 3;
    add(named("fig05_price", spec));
  }

  // Fig. 6: the Fig. 4 environment at lower load, horizon sweep.
  {
    ScenarioSpec spec = section7_spec(1, 1, 2e-6);
    spec.max_latency_ms = 60.0;
    spec.sim.periods = 48;
    spec.sim.period_hours = 0.5;
    spec.sim.noisy_demand = true;
    spec.sim.seed = 11;
    add(named("fig06_horizon", spec));
  }

  // Fig. 9: volatile demand AND volatile prices (the non-monotone-horizon
  // experiment).
  {
    ScenarioSpec spec = section7_spec(2, 4, 1.2e-5);
    spec.reconfig_cost = 0.05;
    spec.sim.periods = 72;
    spec.sim.noisy_demand = true;
    spec.sim.price_noise_std = 0.25;
    spec.sim.seed = 5;
    add(named("fig09_volatile", spec));
  }

  // Fig. 10: constant demand and frozen prices, starting 4x over-provisioned
  // (the planned de-provisioning glide).
  {
    ScenarioSpec spec = section7_spec(1, 1, 2e-5, workload::DiurnalProfile(1.0, 1.0));
    spec.max_latency_ms = 60.0;
    spec.reconfig_cost = 0.5;
    spec.sim.periods = 24;
    spec.sim.seed = 9;
    spec.sim.freeze_prices = true;
    spec.sim.initial_overprovision = 4.0;
    add(named("fig10_constant", spec));
  }

  // Controller ablation: 3 DCs x 8 cities, two noisy diurnal days.
  {
    ScenarioSpec spec = section7_spec(3, 8, 1.5e-5);
    spec.reconfig_cost = 0.01;
    spec.reservation_ratio = 1.15;
    spec.sim.periods = 48;
    spec.sim.noisy_demand = true;
    spec.sim.seed = 2026;
    add(named("ablation_controllers", spec));
  }

  // Predictor ablation: 2 DCs x 6 cities, two days so seasonal models get a
  // full day of history.
  {
    ScenarioSpec spec = section7_spec(2, 6, 1.5e-5);
    spec.reconfig_cost = 0.01;
    spec.sim.periods = 48;
    spec.sim.noisy_demand = true;
    spec.sim.seed = 33;
    add(named("ablation_predictors", spec));
  }

  // Reconfiguration-weight ablation: the bench varies reconfig_cost itself.
  {
    ScenarioSpec spec = section7_spec(2, 4, 1.5e-5);
    spec.sim.periods = 48;
    spec.sim.period_hours = 0.5;
    spec.sim.noisy_demand = true;
    spec.sim.seed = 21;
    add(named("ablation_reconfig", spec));
  }

  // Warm-start ablation: 3 DCs x 8 cities, one noisy day.
  {
    ScenarioSpec spec = section7_spec(3, 8, 1.5e-5);
    spec.reconfig_cost = 0.01;
    spec.sim.periods = 24;
    spec.sim.noisy_demand = true;
    spec.sim.seed = 99;
    add(named("ablation_warm_start", spec));
  }

  // The small 2-DC / 4-city case: fast enough for tests and sweep smoke
  // jobs, rich enough to exercise multi-DC routing.
  {
    ScenarioSpec spec = section7_spec(2, 4, 1.5e-5);
    spec.max_latency_ms = 60.0;
    spec.sim.periods = 24;
    spec.sim.noisy_demand = true;
    spec.sim.seed = 44;
    add(named("ablation_small", spec));
  }

  // Flash crowd: a 5x spike at New York from 10:00 to 13:00 UTC.
  {
    ScenarioSpec spec = section7_spec(2, 4, 1.5e-5, workload::DiurnalProfile(0.6, 1.0));
    spec.max_latency_ms = 120.0;
    spec.reservation_ratio = 1.0;  // the example raises this per variant
    spec.reconfig_cost = 0.001;
    spec.flash_crowds.push_back({0, 10.0, 3.0, 5.0});
    spec.sim.periods = 24;
    spec.sim.noisy_demand = true;
    spec.sim.seed = 7;
    add(named("flash_crowd", spec));
  }

  // Trace-driven: demand replayed from the embedded demo trace (8 half-hour
  // periods x 4 access networks) through two cycles — the recorded-workload
  // path of DESIGN.md; point demand_trace_csv/price_trace_csv at real CSVs
  // to replay measured data. Latency/capacity are relaxed like fig04's so
  // the 2-DC geography stays feasible at the trace's absolute rates.
  {
    ScenarioSpec spec = section7_spec(2, 4);
    spec.demand_trace_csv = kBuiltinDemoTrace;
    spec.max_latency_ms = 60.0;
    spec.reconfig_cost = 0.01;
    spec.reservation_ratio = 1.3;  // cushion for the trace's steep ramps
    spec.sim.periods = 16;  // 2 cycles of the 8-period trace (trace_wrap)
    spec.sim.period_hours = 0.5;
    spec.sim.seed = 17;
    add(named("trace_driven", spec));
  }

  // Continental scale, CI-sized: the synthetic grid small enough for smoke
  // jobs yet large enough that candidate pruning changes the pair count
  // (20 DCs x 120 access networks, 6 candidates per network). The SLA is
  // relaxed to 45 ms so random metros far from their nearest sites stay
  // feasible.
  {
    ScenarioSpec spec;
    spec.topology = "continental";
    spec.num_dcs = 20;
    spec.num_cities = 120;
    spec.candidates_per_an = 6;
    spec.max_latency_ms = 45.0;
    spec.reconfig_cost = 0.01;
    spec.sim.periods = 6;
    spec.sim.noisy_demand = true;
    spec.sim.seed = 77;
    add(named("scale_smoke", spec));
  }

  // The planet-scale target: 200 DCs x 2000 access networks, 8 candidates
  // per network — the bench/perf_scale environment.
  {
    ScenarioSpec spec;
    spec.topology = "continental";
    spec.num_dcs = 200;
    spec.num_cities = 2000;
    spec.candidates_per_an = 8;
    spec.max_latency_ms = 45.0;
    spec.reconfig_cost = 0.01;
    spec.sim.periods = 24;
    spec.sim.noisy_demand = true;
    spec.sim.seed = 4242;
    add(named("scale_continental", spec));
  }

  // Outage drill: 3 DCs x 6 cities (the dc_outage example throttles one
  // site's quota mid-day).
  {
    ScenarioSpec spec = section7_spec(3, 6, 1.5e-5);
    spec.max_latency_ms = 60.0;
    spec.reconfig_cost = 0.01;
    spec.sim.periods = 24;
    add(named("dc_outage", spec));
  }

  return presets;
}

const PresetMap& presets() {
  static const PresetMap map = build_presets();
  return map;
}

}  // namespace

const std::vector<std::string>& preset_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> all;
    for (const auto& [name, spec] : presets()) all.push_back(name);
    return all;
  }();
  return names;
}

bool has_preset(std::string_view name) {
  return presets().find(name) != presets().end();
}

ScenarioSpec preset(std::string_view name) {
  const auto it = presets().find(name);
  if (it == presets().end()) {
    std::string message = "unknown scenario preset '" + std::string(name) + "'; available:";
    for (const auto& known : preset_names()) message += " " + known;
    throw PreconditionError(message);
  }
  return it->second;
}

}  // namespace gp::scenario
