// Geographic load balancing over the paper's full evaluation setup: the
// four named data centers (San Jose / Houston / Atlanta / Chicago), the 24
// major-US-city access networks, population-scaled diurnal demand, and
// regional electricity prices. Runs one simulated day under the MPC
// controller and prints an hourly table showing how allocation follows the
// cheap regions (the mechanism behind the paper's Fig. 5).
//
//   $ ./geo_load_balancing
//
// With --scale, runs the synthetic continental geography instead (the
// scale_smoke preset: 20 data centers x 120 access networks, each network
// pruned to its 6 nearest feasible data centers)
// through SweepRunner under the MPC controller, over three demand seeds.
//
//   $ ./geo_load_balancing --scale
#include <cstdio>
#include <cstring>
#include <iostream>

#include "scenario/policy.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"

namespace {

int run_paper_day() {
  using namespace gp;

  // The registry's full Section VII environment, with a slightly larger
  // reservation cushion and a tight 32 ms SLA so the price-driven shifts
  // happen inside latency-feasible subsets instead of everything collapsing
  // into the cheapest region.
  auto spec = scenario::preset("paper_full");
  spec.reservation_ratio = 1.15;
  const auto bundle = scenario::build(spec);

  scenario::PolicySpec policy;
  policy.horizon = 6;
  policy.demand_predictor.kind = "seasonal";
  policy.price_predictor.kind = "seasonal";
  const auto handle = scenario::make_policy(bundle, spec, policy);

  auto engine = scenario::make_engine(bundle, spec);
  const auto summary = engine.run(handle.policy());

  const auto& sites = bundle.sites;
  std::printf("%-6s %10s | %10s %10s %10s %10s | %10s %6s\n", "hour", "demand",
              sites[0].name.c_str(), sites[1].name.c_str(), sites[2].name.c_str(),
              sites[3].name.c_str(), "cost[$]", "SLA%");
  for (const auto& period : summary.periods) {
    std::printf("%-6.0f %10.0f | %10.1f %10.1f %10.1f %10.1f | %10.4f %6.1f\n",
                period.utc_hour, period.total_demand, period.servers_per_dc[0],
                period.servers_per_dc[1], period.servers_per_dc[2], period.servers_per_dc[3],
                period.resource_cost + period.reconfig_cost, 100.0 * period.sla_compliance);
  }
  std::printf("\nTotals: resource $%.2f + reconfiguration $%.4f = $%.2f, "
              "mean SLA compliance %.1f%%, churn %.1f server-moves\n",
              summary.total_resource_cost, summary.total_reconfig_cost, summary.total_cost,
              100.0 * summary.mean_compliance, summary.total_churn);
  std::puts("Note how the San Jose share dips during the California evening price");
  std::puts("peak while Houston (cheap ERCOT power) picks up load.");
  return summary.unsolved_periods == 0 ? 0 : 1;
}

int run_scale_sweep() {
  using namespace gp;

  // Continental geography through the standard sweep machinery.
  scenario::SweepGrid grid;
  grid.scenarios = {scenario::preset("scale_smoke")};
  scenario::PolicySpec exact;
  exact.name = "mpc_exact";
  grid.policies = {exact};
  grid.num_seeds = 3;
  grid.base_seed = 7;

  const auto result = scenario::SweepRunner(grid).run();

  std::printf("# continental scale_smoke sweep (%zu runs, %.1f runs/s):\n",
              result.runs.size(), result.runs_per_s);
  std::printf("\n# per-(scenario, policy) aggregates over the seed axis:\n");
  result.write_csv(std::cout);

  long long unsolved = 0;
  for (const auto& cell : result.cells) unsolved += cell.unsolved_periods;
  std::printf("\n%s\n", unsolved == 0 ? "all periods solved"
                                      : "UNSOLVED periods present");
  return unsolved == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool scale = argc > 1 && std::strcmp(argv[1], "--scale") == 0;
  return scale ? run_scale_sweep() : run_paper_day();
}
