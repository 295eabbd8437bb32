#include "dspp/block_window.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace gp::dspp {

using linalg::Triplet;
using linalg::Vector;

namespace {

/// Sharing-ADMM penalty. It acts on demand rows normalized by max(D, 1), so
/// it is scale-free (a larger value over-damps the cross-block load shifts
/// and stalls the cost descent).
constexpr double kConsensusRho = 0.05;
static_assert(kConsensusRho > 0.0);

}  // namespace

BlockWindowSolver::BlockWindowSolver(const DsppModel& model, const PairIndex& pairs,
                                     BlockWindowSettings settings)
    : model_(&model),
      pairs_(&pairs),
      settings_(settings),
      exact_solver_(settings.solver) {
  require(settings_.num_blocks >= 1, "BlockWindowSolver: num_blocks must be >= 1");
  require(settings_.max_consensus_iterations >= 1,
          "BlockWindowSolver: max_consensus_iterations must be >= 1");
  require(settings_.consensus_tolerance > 0.0,
          "BlockWindowSolver: consensus_tolerance must be > 0");
  num_blocks_ = std::min(settings_.num_blocks, pairs.num_datacenters());
  if (num_blocks_ > 1) {
    build_blocks();
  } else if (SeparableWindow::applies_to(model, pairs)) {
    separable_.emplace(model, pairs);
  }
}

const qp::AdmmCacheStats& BlockWindowSolver::cache_stats() const {
  if (num_blocks_ > 1 && !blocks_.empty() && blocks_.front().solver != nullptr) {
    return blocks_.front().solver->cache_stats();
  }
  return exact_solver_.cache_stats();
}

void BlockWindowSolver::build_blocks() {
  const std::size_t num_l = pairs_->num_datacenters();
  const std::size_t num_v = pairs_->num_access_networks();
  blocks_.clear();
  blocks_.resize(num_blocks_);
  // Contiguous DC stripes: block of DC l spans [l*B/L] — deterministic and
  // independent of demand, so the block structure never moves at runtime.
  for (std::size_t l = 0; l < num_l; ++l) {
    blocks_[l * num_blocks_ / num_l].dcs.push_back(l);
  }
  for (std::size_t pair = 0; pair < pairs_->num_pairs(); ++pair) {
    const std::size_t l = pairs_->datacenter_of(pair);
    blocks_[l * num_blocks_ / num_l].pair_ids.push_back(pair);
  }
  cover_count_.assign(num_v, 0);
  for (Block& block : blocks_) {
    std::vector<std::uint8_t> seen(num_v, 0);
    for (const std::size_t pair : block.pair_ids) {
      seen[pairs_->access_network_of(pair)] = 1;
    }
    for (std::size_t v = 0; v < num_v; ++v) {
      if (seen[v] != 0) {
        block.touched_v.push_back(static_cast<std::uint32_t>(v));
        ++cover_count_[v];
      }
    }
  }
}

void BlockWindowSolver::assemble(std::size_t b, const WindowInputs& inputs, bool cold) {
  Block& block = blocks_[b];
  const std::size_t nb = block.pair_ids.size();
  const std::size_t lb = block.dcs.size();
  const std::size_t w = horizon_;
  const std::size_t num_v = pairs_->num_access_networks();
  const std::size_t n = 2 * w * nb;
  const std::size_t capacity_row_offset = w * nb;
  const std::size_t sign_row_offset = capacity_row_offset + w * lb;
  const std::size_t m = sign_row_offset + w * nb;

  auto x_var = [&](std::size_t t, std::size_t jj) {
    return static_cast<std::int32_t>(t * nb + jj);
  };
  auto u_var = [&](std::size_t t, std::size_t jj) {
    return static_cast<std::int32_t>(w * nb + t * nb + jj);
  };

  // Local DC index of each block pair, and local pairs per access network.
  std::vector<std::size_t> local_dc(nb);
  std::vector<std::vector<std::size_t>> pairs_of_v(num_v);
  for (std::size_t jj = 0; jj < nb; ++jj) {
    const std::size_t l = pairs_->datacenter_of(block.pair_ids[jj]);
    local_dc[jj] = static_cast<std::size_t>(
        std::lower_bound(block.dcs.begin(), block.dcs.end(), l) - block.dcs.begin());
    pairs_of_v[pairs_->access_network_of(block.pair_ids[jj])].push_back(jj);
  }

  std::vector<Triplet> a_triplets;
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t jj = 0; jj < nb; ++jj) {
      const auto row = static_cast<std::int32_t>(t * nb + jj);
      a_triplets.push_back({row, x_var(t, jj), 1.0});
      a_triplets.push_back({row, u_var(t, jj), -1.0});
      if (t > 0) a_triplets.push_back({row, x_var(t - 1, jj), -1.0});
    }
    for (std::size_t jj = 0; jj < nb; ++jj) {
      const auto row = static_cast<std::int32_t>(capacity_row_offset + t * lb + local_dc[jj]);
      a_triplets.push_back({row, x_var(t, jj), model_->server_size});
    }
    for (std::size_t jj = 0; jj < nb; ++jj) {
      a_triplets.push_back(
          {static_cast<std::int32_t>(sign_row_offset + t * nb + jj), x_var(t, jj), 1.0});
    }
  }

  // P: the reconfiguration diagonal (structural) plus the consensus penalty
  // rho * G_b' G_b — per (t, v) a dense block over the network's in-block
  // pairs, scaled by the demand normalization of that row (values change per
  // solve; the sparsity pattern never does, which keeps the structure cache
  // hot).
  std::vector<Triplet> p_triplets;
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t jj = 0; jj < nb; ++jj) {
      const double c = model_->reconfig_cost[pairs_->datacenter_of(block.pair_ids[jj])];
      if (c > 0.0) p_triplets.push_back({u_var(t, jj), u_var(t, jj), 2.0 * c});
    }
    for (const std::uint32_t v : block.touched_v) {
      const double scale = row_scale_[t * num_v + v];
      for (const std::size_t i : pairs_of_v[v]) {
        const double gi = 1.0 / (pairs_->coefficient(block.pair_ids[i]) * scale);
        for (const std::size_t j : pairs_of_v[v]) {
          const double gj = 1.0 / (pairs_->coefficient(block.pair_ids[j]) * scale);
          p_triplets.push_back({x_var(t, i), x_var(t, j), kConsensusRho * gi * gj});
        }
      }
    }
  }

  block.problem.p = linalg::SparseMatrix::from_triplets(
      static_cast<std::int32_t>(n), static_cast<std::int32_t>(n), p_triplets);
  block.problem.a = linalg::SparseMatrix::from_triplets(
      static_cast<std::int32_t>(m), static_cast<std::int32_t>(n), a_triplets);
  block.problem.q.assign(n, 0.0);
  block.problem.lower.assign(m, 0.0);
  block.problem.upper.assign(m, 0.0);
  write_block_parameters(b, inputs);

  if (!cold) return;  // keep solver / consensus state; only values moved

  qp::AdmmSettings solver_settings = settings_.solver;
  // Warm starts and the structure cache are what make the consensus loop
  // cheap (q-only updates skip factorization); always on for block solves.
  solver_settings.auto_warm_start = true;
  solver_settings.cache_structure = true;
  block.solver = std::make_unique<qp::AdmmSolver>(solver_settings);
  block.g.assign(horizon_ * num_v, 0.0);
  block.w.assign(horizon_ * num_v, 0.0);
  // Cold-start share: split each demand row among covering blocks by their
  // candidate counts.
  for (std::size_t t = 0; t < horizon_; ++t) {
    for (const std::uint32_t v : block.touched_v) {
      const std::size_t r = t * num_v + v;
      const double share = static_cast<double>(pairs_of_v[v].size()) /
                           static_cast<double>(pairs_->pairs_of_access_network(v).size());
      block.w[r] = demand_norm_[r] * share;
    }
  }
}

void BlockWindowSolver::write_block_parameters(std::size_t b, const WindowInputs& inputs) {
  Block& block = blocks_[b];
  const std::size_t nb = block.pair_ids.size();
  const std::size_t lb = block.dcs.size();
  const std::size_t w = horizon_;
  const std::size_t capacity_row_offset = w * nb;
  const std::size_t sign_row_offset = capacity_row_offset + w * lb;
  const std::span<const double> capacity =
      inputs.capacity_override.has_value() ? std::span<const double>(*inputs.capacity_override)
                                           : std::span<const double>(model_->capacity);
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t jj = 0; jj < nb; ++jj) {
      const std::size_t row = t * nb + jj;
      const double rhs = t == 0 ? inputs.initial_state[block.pair_ids[jj]] : 0.0;
      block.problem.lower[row] = rhs;
      block.problem.upper[row] = rhs;
    }
    for (std::size_t li = 0; li < lb; ++li) {
      const std::size_t row = capacity_row_offset + t * lb + li;
      block.problem.lower[row] = -qp::kInfinity;
      block.problem.upper[row] = capacity[block.dcs[li]];
    }
    for (std::size_t jj = 0; jj < nb; ++jj) {
      const std::size_t row = sign_row_offset + t * nb + jj;
      block.problem.lower[row] = 0.0;
      block.problem.upper[row] = qp::kInfinity;
    }
  }
}

WindowSolution BlockWindowSolver::solve_exact(WindowInputs inputs) {
  const bool metrics_on = obs::metrics_enabled();
  long long* reason = nullptr;
  const char* reason_name = nullptr;
  bool warm_from_separable = false;
  if (!separable_) {
    reason = &path_stats_.fallback_zero_reconfig;
    reason_name = "window.fallback.zero_reconfig";
  } else {
    const SeparableOutcome outcome =
        separable_->solve(inputs, settings_.reuse_solver_state, settings_.max_lanes);
    if (separable_->last_reused()) {
      ++path_stats_.relaxation_reused;
      if (metrics_on) obs::Registry::global().counter("window.relaxation_reused").add(1);
    } else {
      path_stats_.safeguard_runs += separable_->last_safeguard_runs();
      if (metrics_on) {
        auto& registry = obs::Registry::global();
        registry.counter("window.safeguard_runs").add(separable_->last_safeguard_runs());
        auto& steps = registry.histogram("window.active_set_steps");
        for (std::size_t v = 0; v < separable_->num_networks(); ++v) {
          steps.record(separable_->last_steps(v));
        }
      }
    }
    if (outcome == SeparableOutcome::kCertified) {
      ++path_stats_.separable;
      if (metrics_on) obs::Registry::global().counter("window.separable_solves").add(1);
      return separable_->solution(inputs);
    }
    // A hard window's ADMM starts from the separable point. A soft one (a
    // best response) starts from its own last iterate: measured on
    // tenant_day, that needs fewer iterations than the separable point,
    // which ignores the binding quota.
    warm_from_separable = inputs.soft_demand_penalty == 0.0;
    if (outcome == SeparableOutcome::kCapacityViolated) {
      reason = &path_stats_.fallback_capacity;
      reason_name = "window.fallback.capacity";
    } else if (outcome == SeparableOutcome::kSlackNeeded) {
      reason = &path_stats_.fallback_slack;
      reason_name = "window.fallback.slack";
    } else {
      reason = &path_stats_.fallback_uncertified;
      reason_name = "window.fallback.uncertified";
    }
  }
  ++*reason;
  if (metrics_on) {
    auto& registry = obs::Registry::global();
    registry.counter("window.fallback_solves").add(1);
    registry.counter(reason_name).add(1);
  }
  if (obs::TelemetryFrame* frame = obs::timeline_frame()) frame->window_fallback = 1.0;

  if (settings_.reuse_solver_state && program_) {
    program_->update(*model_, *pairs_, inputs);
  } else {
    program_.emplace(*model_, *pairs_, std::move(inputs));
  }
  if (warm_from_separable) {
    linalg::Vector z, y;
    separable_->warm_start_point(*program_, z, y);
    exact_solver_.warm_start(std::move(z), std::move(y));
  }
  WindowSolution solution = program_->solve(exact_solver_);
  if (separable_) solution.active_set_steps = separable_->last_active_set_steps();
  return solution;
}

WindowSolution BlockWindowSolver::solve_consensus(const WindowInputs& inputs) {
  const std::size_t num_v = pairs_->num_access_networks();
  const std::size_t num_l = pairs_->num_datacenters();
  const std::size_t w = inputs.demand.size();
  require(w >= 1, "BlockWindowSolver: empty demand forecast");
  require(inputs.soft_demand_penalty == 0.0,
          "BlockWindowSolver: soft demand requires num_blocks == 1");
  require(inputs.initial_state.size() == pairs_->num_pairs(),
          "BlockWindowSolver: initial state size != pair count");
  require(inputs.price.size() == w, "BlockWindowSolver: price horizon != demand horizon");
  for (const auto& d : inputs.demand) {
    require(d.size() == num_v, "BlockWindowSolver: demand vector size != V");
  }
  for (const auto& p : inputs.price) {
    require(p.size() == num_l, "BlockWindowSolver: price vector size != L");
  }

  const bool rebuild = horizon_ != w || !settings_.reuse_solver_state;
  horizon_ = w;
  const std::size_t rows = w * num_v;
  row_scale_.assign(rows, 1.0);
  demand_norm_.assign(rows, 0.0);
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t v = 0; v < num_v; ++v) {
      const std::size_t r = t * num_v + v;
      row_scale_[r] = std::max(inputs.demand[t][v], 1.0);
      demand_norm_[r] = inputs.demand[t][v] / row_scale_[r];
    }
  }
  if (rebuild || !consensus_warm_) {
    dual_.assign(rows, 0.0);
    for (std::size_t b = 0; b < num_blocks_; ++b) assemble(b, inputs, /*cold=*/true);
    consensus_warm_ = true;
  } else {
    // Keep w/u/solver state from the previous period (receding horizon);
    // only the values move. The penalty values depend on the demand
    // normalization, so P is re-assembled — same sparsity, cache stays.
    for (std::size_t b = 0; b < num_blocks_; ++b) assemble(b, inputs, /*cold=*/false);
  }

  // Per-block consensus metadata used in the q-update and g-reduction.
  std::vector<std::vector<std::uint32_t>> cover_blocks(num_v);
  for (std::size_t b = 0; b < num_blocks_; ++b) {
    for (const std::uint32_t v : blocks_[b].touched_v) {
      cover_blocks[v].push_back(static_cast<std::uint32_t>(b));
    }
  }

  int total_inner_iterations = 0;
  bool converged = false;
  bool failed = false;
  last_consensus_iterations_ = 0;
  // Feasibility alone is not enough to stop on: each block step is also a
  // proximal step on its own cost, and cross-block load shifts (expensive
  // blocks shedding toward cheap ones) happen over several iterations after
  // the demand rows are already met. Stop when feasible AND the aggregate
  // linear cost has gone stationary.
  double previous_cost = std::numeric_limits<double>::infinity();
  for (int it = 0; it < settings_.max_consensus_iterations && !converged && !failed; ++it) {
    parallel_for(
        std::size_t{0}, num_blocks_,
        [&](std::size_t b) {
          Block& block = blocks_[b];
          const std::size_t nb = block.pair_ids.size();
          // Linear term: price on x, minus the consensus pull toward the
          // block's current demand target.
          for (std::size_t t = 0; t < w; ++t) {
            for (std::size_t jj = 0; jj < nb; ++jj) {
              const std::size_t pair = block.pair_ids[jj];
              const std::size_t r = t * num_v + pairs_->access_network_of(pair);
              const double inv = 1.0 / (pairs_->coefficient(pair) * row_scale_[r]);
              block.problem.q[t * nb + jj] =
                  inputs.price[t][pairs_->datacenter_of(pair)] -
                  kConsensusRho * (block.w[r] - dual_[r]) * inv;
            }
          }
          const qp::QpResult result = block.solver->solve(block.problem);
          block.solved_ok = result.status == qp::SolveStatus::kOptimal ||
                            result.status == qp::SolveStatus::kMaxIterations;
          block.iterations = result.iterations;
          block.x = result.x;
          block.y = result.y;
          std::fill(block.g.begin(), block.g.end(), 0.0);
          if (block.x.size() == block.problem.num_variables()) {
            for (std::size_t t = 0; t < w; ++t) {
              for (std::size_t jj = 0; jj < nb; ++jj) {
                const std::size_t pair = block.pair_ids[jj];
                const std::size_t r = t * num_v + pairs_->access_network_of(pair);
                block.g[r] += std::max(0.0, block.x[t * nb + jj]) /
                              (pairs_->coefficient(pair) * row_scale_[r]);
              }
            }
          }
        },
        settings_.max_lanes);

    double max_shortfall = 0.0;
    for (std::size_t b = 0; b < num_blocks_; ++b) {
      total_inner_iterations += blocks_[b].iterations;
      if (!blocks_[b].solved_ok) failed = true;
    }
    if (failed) break;
    // Share + dual step (closed form: projection onto {sum_b w_b >= D'}).
    for (std::size_t t = 0; t < w; ++t) {
      for (std::size_t v = 0; v < num_v; ++v) {
        const std::size_t r = t * num_v + v;
        const auto& cover = cover_blocks[v];
        double sum_g = 0.0;
        for (const std::uint32_t b : cover) sum_g += blocks_[b].g[r];
        const double cover_n = static_cast<double>(cover.size());
        const double deficit =
            std::max(0.0, demand_norm_[r] - (sum_g + cover_n * dual_[r]));
        const double shift = deficit / cover_n;
        for (const std::uint32_t b : cover) {
          blocks_[b].w[r] = blocks_[b].g[r] + dual_[r] + shift;
        }
        dual_[r] = -shift;
        max_shortfall = std::max(max_shortfall, demand_norm_[r] - sum_g);
      }
    }
    double linear_cost = 0.0;
    for (const Block& block : blocks_) {
      const std::size_t nb = block.pair_ids.size();
      for (std::size_t t = 0; t < w; ++t) {
        for (std::size_t jj = 0; jj < nb; ++jj) {
          linear_cost += inputs.price[t][pairs_->datacenter_of(block.pair_ids[jj])] *
                         std::max(0.0, block.x[t * nb + jj]);
        }
      }
    }
    ++last_consensus_iterations_;
    const bool stationary = std::abs(linear_cost - previous_cost) <=
                            settings_.consensus_tolerance * std::max(1.0, std::abs(linear_cost));
    previous_cost = linear_cost;
    if (max_shortfall <= settings_.consensus_tolerance && stationary) converged = true;
  }

  // Assemble the window solution from the block solutions.
  WindowSolution solution;
  solution.solver_iterations = total_inner_iterations;
  if (failed) {
    solution.status = qp::SolveStatus::kNumericalError;
    return solution;
  }
  solution.status = converged ? qp::SolveStatus::kOptimal : qp::SolveStatus::kMaxIterations;
  solution.x.assign(w, Vector(pairs_->num_pairs(), 0.0));
  solution.u.assign(w, Vector(pairs_->num_pairs(), 0.0));
  solution.capacity_duals.assign(w, Vector(num_l, 0.0));
  double objective = 0.0;
  for (std::size_t b = 0; b < num_blocks_; ++b) {
    const Block& block = blocks_[b];
    const std::size_t nb = block.pair_ids.size();
    const std::size_t lb = block.dcs.size();
    for (std::size_t t = 0; t < w; ++t) {
      for (std::size_t jj = 0; jj < nb; ++jj) {
        const std::size_t pair = block.pair_ids[jj];
        const double x = std::max(0.0, block.x[t * nb + jj]);
        const double u = block.x[w * nb + t * nb + jj];
        solution.x[t][pair] = x;
        solution.u[t][pair] = u;
        objective += inputs.price[t][pairs_->datacenter_of(pair)] * x +
                     model_->reconfig_cost[pairs_->datacenter_of(pair)] * u * u;
      }
      for (std::size_t li = 0; li < lb; ++li) {
        solution.capacity_duals[t][block.dcs[li]] =
            std::max(0.0, block.y[w * nb + t * lb + li]);
      }
    }
  }
  solution.objective = objective;
  return solution;
}

WindowSolution BlockWindowSolver::solve(WindowInputs inputs) {
  if (num_blocks_ <= 1) return solve_exact(std::move(inputs));
  return solve_consensus(inputs);
}

}  // namespace gp::dspp
