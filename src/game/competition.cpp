#include "game/competition.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace gp::game {

using linalg::Triplet;
using linalg::Vector;

namespace {

/// Best responses are polished to near-exact KKT points: the quota exchange
/// is driven by the capacity duals.
qp::AdmmSettings best_response_settings(const GameSettings& settings) {
  qp::AdmmSettings solver_settings = settings.solver;
  solver_settings.polish = true;
  return solver_settings;
}

// kStabilized step rule: at most kStepSize of C^l is exchanged per
// iteration, decaying as alpha_t = alpha / (1 + kStepDecay * t) (duals are
// piecewise-constant in the quota, so a constant-step subgradient exchange
// oscillates).
constexpr double kStepSize = 0.2;
constexpr double kStepDecay = 0.08;
constexpr double kMinQuotaFraction = 1e-3;  ///< quota floor as a fraction of C / N
static_assert(kStepSize > 0.0);

}  // namespace

CompetitionGame::CompetitionGame(std::vector<ProviderConfig> providers, Vector capacity,
                                 GameSettings settings)
    : providers_(std::move(providers)), capacity_(std::move(capacity)), settings_(settings),
      welfare_solver_(best_response_settings(settings)) {
  require(!providers_.empty(), "CompetitionGame: need at least one provider");
  require(settings_.epsilon > 0.0, "CompetitionGame: epsilon must be > 0");
  require(settings_.soft_demand_penalty > 0.0,
          "CompetitionGame: soft demand penalty must be > 0 (quotas can be infeasible)");
  horizon_ = providers_.front().demand.size();
  const std::size_t num_l = providers_.front().model.num_datacenters();
  require(capacity_.size() == num_l, "CompetitionGame: capacity size != L");
  for (double c : capacity_) require(c > 0.0, "CompetitionGame: capacity must be > 0");
  pair_index_.reserve(providers_.size());
  for (std::size_t i = 0; i < providers_.size(); ++i) {
    const auto& provider = providers_[i];
    require(provider.model.num_datacenters() == num_l,
            "CompetitionGame: providers disagree on the data-center set");
    pair_index_.emplace_back(provider.model);
    check_window(i, provider.initial_state, provider.demand, provider.price);
  }
  dspp::WindowSolverSettings response_settings;
  response_settings.solver = best_response_settings(settings_);
  responders_.reserve(providers_.size());
  for (std::size_t i = 0; i < providers_.size(); ++i) {
    responders_.emplace_back(providers_[i].model, pair_index_[i], response_settings);
  }
  response_ns_.fill(std::vector<double>(providers_.size(), 0.0));
}

void CompetitionGame::check_window(std::size_t i, const Vector& initial_state,
                                   const std::vector<Vector>& demand,
                                   const std::vector<Vector>& price) const {
  require(demand.size() == horizon_, "CompetitionGame: providers disagree on W");
  require(price.size() == horizon_, "CompetitionGame: price horizon mismatch");
  require(initial_state.size() == pair_index_[i].num_pairs(),
          "CompetitionGame: initial state size mismatch");
}

void CompetitionGame::set_window(std::size_t i, Vector initial_state, std::vector<Vector> demand,
                                 std::vector<Vector> price) {
  require(i < providers_.size(), "CompetitionGame::set_window: provider out of range");
  check_window(i, initial_state, demand, price);
  auto& provider = providers_[i];
  provider.initial_state = std::move(initial_state);
  provider.demand = std::move(demand);
  provider.price = std::move(price);
}

dspp::WindowSolution CompetitionGame::best_response(std::size_t i, const Vector& quota) {
  // Runs on a pool lane during Jacobi rounds: the span records which thread
  // served provider i, nested under the round's span on the caller.
  obs::Span span("game.best_response", static_cast<double>(i));
  const auto& provider = providers_[i];
  dspp::WindowInputs inputs;
  inputs.initial_state = provider.initial_state;
  inputs.demand = provider.demand;
  inputs.price = provider.price;
  inputs.capacity_override = quota;
  inputs.soft_demand_penalty = settings_.soft_demand_penalty;
  // Most best responses leave every quota slack: the responder then solves
  // the window network by network and reports zero capacity duals. Across
  // game iterations only the quota changes, so later rounds keep that
  // relaxation and only re-check the quota rows. A binding quota goes to
  // ADMM, where each call after the first build is a parameter update: the
  // structure cache removes the setup cost (scaling, ordering,
  // factorization), and the default warm start begins at this provider's
  // previous ADMM solution instead of at zero.
  dspp::WindowSolution solution = responders_[i].solve(std::move(inputs));
  if (obs::metrics_enabled()) {
    obs::Registry::global().histogram("game.best_response_ms").record(span.elapsed_ms());
  }
  return solution;
}

GameResult CompetitionGame::run(std::optional<std::vector<Vector>> initial_quotas) {
  obs::Span run_span("game.run", static_cast<double>(providers_.size()));
  const std::size_t n = providers_.size();
  const std::size_t num_l = capacity_.size();

  // Quotas: caller-provided warm start, or the equal split C^i = C / N.
  std::vector<Vector> quotas;
  if (initial_quotas) {
    quotas = std::move(*initial_quotas);
    require(quotas.size() == n, "run: initial quota count != providers");
    for (const auto& quota : quotas) {
      require(quota.size() == num_l, "run: initial quota size != L");
      for (double q : quota) require(q > 0.0, "run: initial quotas must be > 0");
    }
  } else {
    quotas.assign(n, Vector(num_l, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t l = 0; l < num_l; ++l) {
        quotas[i][l] = capacity_[l] / static_cast<double>(n);
      }
    }
  }
  const double quota_floor_scale = kMinQuotaFraction / static_cast<double>(n);

  GameResult result;
  result.provider_costs.assign(n, 0.0);
  result.solutions.resize(n);
  double previous_cost = std::numeric_limits<double>::infinity();
  int stable_streak = 0;
  const std::size_t lanes =
      std::min({n, ThreadPool::global().max_lanes(),
                settings_.num_threads == 0 ? n : settings_.num_threads});

  for (int iteration = 0; iteration < settings_.max_iterations; ++iteration) {
    obs::Span round_span("game.round", static_cast<double>(iteration));
    // --- Best responses and duals: a Jacobi round. Every response depends
    // only on the quotas fixed above, so the N solves run concurrently,
    // each on its own solver/program; results land by provider index so the
    // outcome is bit-identical at any thread count. Providers' costs differ
    // several-fold, so a static split can leave a lane idle for most of the
    // round: each round deals the responses by LPT on their last measured
    // cost in the same kind of round (equal weights before any
    // measurement), and each lane runs its providers in index order. ---
    std::vector<double>& measured = response_ns_[iteration == 0 ? 0 : 1];
    std::vector<double> weights(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (measured[i] > 0.0) {
        weights[i] = measured[i];
      } else if (response_ns_[0][i] > 0.0) {
        weights[i] = response_ns_[0][i];
      }
    }
    std::vector<std::vector<std::size_t>> lane_providers = deal_lpt(weights, lanes);
    for (auto& providers : lane_providers) std::sort(providers.begin(), providers.end());
    parallel_for(
        0, lanes,
        [&](std::size_t lane) {
          for (const std::size_t i : lane_providers[lane]) {
            const auto start = std::chrono::steady_clock::now();
            result.solutions[i] = best_response(i, quotas[i]);
            measured[i] = std::chrono::duration<double, std::nano>(
                              std::chrono::steady_clock::now() - start)
                              .count();
          }
        },
        lanes);
    double total_cost = 0.0;
    std::vector<Vector> duals(n);
    for (std::size_t i = 0; i < n; ++i) {
      // A soft best response is always feasible; accept a max-iterations
      // iterate (the ADMM solution is a usable approximation and its duals
      // still point the quota update in the right direction), but a
      // certificate of infeasibility or a numerical failure is a bug.
      const auto status = result.solutions[i].status;
      ensure(status == qp::SolveStatus::kOptimal || status == qp::SolveStatus::kMaxIterations,
             "CompetitionGame: best response of provider " + std::to_string(i) +
                 " failed with status " + qp::to_string(status));
      result.provider_costs[i] = result.solutions[i].objective;
      total_cost += result.provider_costs[i];
      duals[i] = result.solutions[i].capacity_price();
    }
    result.cost_history.push_back(total_cost);
    result.iterations = iteration + 1;
    result.total_cost = total_cost;
    if (obs::recording_enabled()) {
      obs::ConvergenceRecorder::local().push(
          "game.round", iteration + 1, total_cost,
          std::isfinite(previous_cost) ? total_cost - previous_cost : 0.0);
    }
    if (obs::audit::enabled() && std::isfinite(previous_cost)) {
      // Algorithm 2's descent property: a Jacobi round should not INCREASE
      // total cost beyond the convergence tolerance (quota exchange can
      // plateau, never climb, once responses are exact).
      const double slack = 10.0 * settings_.epsilon * std::abs(previous_cost) + 1e-9;
      obs::audit::check("game_monotone_cost", total_cost <= previous_cost + slack, total_cost,
                        previous_cost + slack);
    }
    if (obs::metrics_enabled() && std::isfinite(previous_cost)) {
      // Per-round best-response delta: how far the Jacobi round moved the
      // total cost, relative — the quantity the convergence test watches.
      obs::Registry::global()
          .histogram("game.round_cost_delta_rel")
          .record(std::abs(total_cost - previous_cost) /
                  std::max(std::abs(previous_cost), 1e-12));
    }

    // --- Convergence check: the paper's relative-cost criterion, demanded
    // for several consecutive iterations (one quiet iteration can be an
    // early plateau while quotas are still being exchanged). ---
    if (std::isfinite(previous_cost) &&
        std::abs(total_cost - previous_cost) <= settings_.epsilon * std::abs(previous_cost)) {
      ++stable_streak;
      if (stable_streak >= kStableIterationsRequired) {
        result.converged = true;
        break;
      }
    } else {
      stable_streak = 0;
    }
    previous_cost = total_cost;

    // --- Quota update (Algorithm 2, lines 7-8); see QuotaUpdateRule. ---
    for (std::size_t l = 0; l < num_l; ++l) {
      const double floor = quota_floor_scale * capacity_[l];
      if (settings_.update_rule == QuotaUpdateRule::kPaperFixedStep) {
        // Cbar^i = C^i + alpha lambda^i; C^i := Cbar^i * C / sum_j Cbar^j.
        double column_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          quotas[i][l] =
              std::max(floor, quotas[i][l] + settings_.paper_step_size * duals[i][l]);
          column_sum += quotas[i][l];
        }
        ensure(column_sum > 0.0, "CompetitionGame: quota column collapsed");
        for (std::size_t i = 0; i < n; ++i) {
          quotas[i][l] = std::max(floor, quotas[i][l] * capacity_[l] / column_sum);
        }
        continue;
      }
      // kStabilized: move capacity along MEAN-CENTRED duals (from providers
      // whose marginal value lambda^{il} is below average to those above),
      // with the step normalized by the dual spread so at most kStepSize
      // of C^l moves per iteration, and diminishing over iterations. The
      // fixed point — equal duals across providers — is the socially
      // optimal split behind Theorem 1.
      double mean_dual = 0.0, max_dual = 0.0, min_dual = std::numeric_limits<double>::max();
      for (std::size_t i = 0; i < n; ++i) {
        mean_dual += duals[i][l];
        max_dual = std::max(max_dual, duals[i][l]);
        min_dual = std::min(min_dual, duals[i][l]);
      }
      mean_dual /= static_cast<double>(n);
      const double spread = max_dual - min_dual;
      if (spread <= 1e-12) continue;  // all marginal values equal: at rest
      const double step = kStepSize / (1.0 + kStepDecay * static_cast<double>(iteration));
      const double alpha = step * capacity_[l] / spread;
      double column_sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        quotas[i][l] = std::max(floor, quotas[i][l] + alpha * (duals[i][l] - mean_dual));
        column_sum += quotas[i][l];
      }
      // Flooring can perturb the sum; renormalize back onto the simplex.
      for (std::size_t i = 0; i < n; ++i) {
        quotas[i][l] = std::max(floor, quotas[i][l] * capacity_[l] / column_sum);
      }
    }
  }

  if (obs::recording_enabled() && !result.converged) {
    obs::ConvergenceRecorder::local().push("game.max_rounds", result.iterations,
                                           result.total_cost);
    obs::ConvergenceRecorder::dump_failure("game.max_rounds");
  }
  result.quotas = std::move(quotas);
  for (const auto& solution : result.solutions) {
    for (const auto& per_period : solution.unserved) {
      for (double value : per_period) result.total_unserved += value;
    }
  }
  auto& registry = obs::Registry::global();
  if (registry.enabled()) {
    registry.counter("game.runs").add(1);
    registry.counter("game.rounds").add(result.iterations);
    registry.histogram("game.rounds_to_equilibrium").record(result.iterations);
    registry.gauge("game.converged").set(result.converged ? 1.0 : 0.0);
  }
  return result;
}

SocialWelfareResult CompetitionGame::solve_social_welfare() {
  obs::Span span("game.social_welfare", static_cast<double>(providers_.size()));
  const std::size_t n = providers_.size();
  const std::size_t num_l = capacity_.size();

  // Per-provider window programs with effectively unconstrained private
  // capacity; the shared capacity rows are appended jointly below. The
  // builds are independent, so they run concurrently.
  std::vector<std::optional<dspp::WindowProgram>> programs(n);
  parallel_for(
      0, n,
      [&](std::size_t i) {
        dspp::WindowInputs inputs;
        inputs.initial_state = providers_[i].initial_state;
        inputs.demand = providers_[i].demand;
        inputs.price = providers_[i].price;
        inputs.capacity_override = Vector(num_l, 1e12);
        inputs.soft_demand_penalty = settings_.soft_demand_penalty;
        programs[i].emplace(providers_[i].model, pair_index_[i], std::move(inputs));
      },
      settings_.num_threads);

  // --- Assemble the joint QP: block-diagonal stack + shared capacity rows.
  std::size_t total_vars = 0, total_rows = 0;
  std::vector<std::size_t> var_offset(n), row_offset(n);
  for (std::size_t i = 0; i < n; ++i) {
    var_offset[i] = total_vars;
    row_offset[i] = total_rows;
    total_vars += programs[i]->problem().num_variables();
    total_rows += programs[i]->problem().num_constraints();
  }
  const std::size_t shared_rows = horizon_ * num_l;

  qp::QpProblem joint;
  joint.q.assign(total_vars, 0.0);
  joint.lower.assign(total_rows + shared_rows, 0.0);
  joint.upper.assign(total_rows + shared_rows, 0.0);
  // Each provider's triplet block is produced into its own slot (and its
  // q/bounds slices are disjoint), so the blocks assemble concurrently; the
  // sequential concatenation below keeps the triplet order — and therefore
  // the assembled matrices — independent of the thread count.
  std::vector<std::vector<Triplet>> p_blocks(n), a_blocks(n);
  parallel_for(
      0, n,
      [&](std::size_t i) {
        const auto& block = programs[i]->problem();
        const auto voff = static_cast<std::int32_t>(var_offset[i]);
        const auto roff = static_cast<std::int32_t>(row_offset[i]);
        // P block.
        const auto pc = block.p.col_ptr();
        const auto pr = block.p.row_idx();
        const auto pv = block.p.values();
        p_blocks[i].reserve(static_cast<std::size_t>(block.p.nnz()));
        for (std::int32_t c = 0; c < block.p.cols(); ++c) {
          for (std::int32_t e = pc[c]; e < pc[c + 1]; ++e) {
            p_blocks[i].push_back({pr[e] + voff, c + voff, pv[e]});
          }
        }
        for (std::size_t j = 0; j < block.q.size(); ++j) {
          joint.q[var_offset[i] + j] = block.q[j];
        }
        // A block.
        const auto ac = block.a.col_ptr();
        const auto ar = block.a.row_idx();
        const auto av = block.a.values();
        a_blocks[i].reserve(static_cast<std::size_t>(block.a.nnz()));
        for (std::int32_t c = 0; c < block.a.cols(); ++c) {
          for (std::int32_t e = ac[c]; e < ac[c + 1]; ++e) {
            a_blocks[i].push_back({ar[e] + roff, c + voff, av[e]});
          }
        }
        for (std::size_t r = 0; r < block.num_constraints(); ++r) {
          joint.lower[row_offset[i] + r] = block.lower[r];
          joint.upper[row_offset[i] + r] = block.upper[r];
        }
      },
      settings_.num_threads);
  std::vector<Triplet> p_triplets, a_triplets;
  for (std::size_t i = 0; i < n; ++i) {
    p_triplets.insert(p_triplets.end(), p_blocks[i].begin(), p_blocks[i].end());
    a_triplets.insert(a_triplets.end(), a_blocks[i].begin(), a_blocks[i].end());
  }
  // Shared capacity rows: sum_i sum_{pairs in l} s^i x^i_{t, pair} <= C^l.
  for (std::size_t t = 0; t < horizon_; ++t) {
    for (std::size_t l = 0; l < num_l; ++l) {
      const auto row = static_cast<std::int32_t>(total_rows + t * num_l + l);
      for (std::size_t i = 0; i < n; ++i) {
        for (const std::size_t pair : pair_index_[i].pairs_of_datacenter(l)) {
          a_triplets.push_back(
              {row, static_cast<std::int32_t>(var_offset[i] + programs[i]->x_variable(t, pair)),
               providers_[i].model.server_size});
        }
      }
      joint.lower[total_rows + t * num_l + l] = -qp::kInfinity;
      joint.upper[total_rows + t * num_l + l] = capacity_[l];
    }
  }
  joint.p = linalg::SparseMatrix::from_triplets(static_cast<std::int32_t>(total_vars),
                                                static_cast<std::int32_t>(total_vars),
                                                p_triplets);
  joint.a = linalg::SparseMatrix::from_triplets(
      static_cast<std::int32_t>(total_rows + shared_rows),
      static_cast<std::int32_t>(total_vars), a_triplets);

  const qp::QpResult raw = welfare_solver_.solve(joint);
  SocialWelfareResult result;
  if (!raw.ok()) return result;
  result.solved = true;
  result.total_cost = raw.objective;
  result.provider_costs.assign(n, 0.0);
  result.x.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    // Slice this provider's variables and re-evaluate its own objective.
    const auto& block = programs[i]->problem();
    Vector xi(block.num_variables());
    for (std::size_t j = 0; j < xi.size(); ++j) xi[j] = raw.x[var_offset[i] + j];
    result.provider_costs[i] = block.objective(xi);
    qp::QpResult sliced;
    sliced.status = qp::SolveStatus::kOptimal;
    sliced.x = std::move(xi);
    sliced.objective = result.provider_costs[i];
    result.x[i] = programs[i]->extract(sliced).x;
  }
  return result;
}

double efficiency_ratio(const GameResult& equilibrium, const SocialWelfareResult& welfare) {
  require(welfare.solved, "efficiency_ratio: SWP not solved");
  require(welfare.total_cost > 0.0, "efficiency_ratio: non-positive SWP cost");
  return equilibrium.total_cost / welfare.total_cost;
}

}  // namespace gp::game
