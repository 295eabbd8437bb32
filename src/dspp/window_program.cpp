#include "dspp/window_program.hpp"

#include <algorithm>
#include <span>

#include "common/error.hpp"

namespace gp::dspp {

using linalg::Triplet;
using linalg::Vector;

linalg::Vector WindowSolution::capacity_price() const {
  if (capacity_duals.empty()) return {};
  // The quota applies to every period of the window, so its marginal value
  // is the SUM of the per-period capacity duals (dJ*/dC^l).
  Vector price(capacity_duals.front().size(), 0.0);
  for (const auto& duals : capacity_duals) {
    for (std::size_t l = 0; l < price.size(); ++l) price[l] += duals[l];
  }
  return price;
}

void WindowProgram::validate_inputs(const WindowInputs& inputs) const {
  require(inputs.price.size() == horizon_, "WindowProgram: price horizon != demand horizon");
  require(inputs.initial_state.size() == num_pairs_,
          "WindowProgram: initial state size != pair count");
  for (const auto& d : inputs.demand) {
    require(d.size() == num_v_, "WindowProgram: demand vector size != V");
    for (double value : d) require(value >= 0.0, "WindowProgram: negative demand");
  }
  for (const auto& p : inputs.price) {
    require(p.size() == num_l_, "WindowProgram: price vector size != L");
  }
  require(inputs.soft_demand_penalty >= 0.0, "WindowProgram: negative demand penalty");
}

WindowProgram::WindowProgram(const DsppModel& model, const PairIndex& pairs,
                             WindowInputs inputs) {
  model.validate();
  num_pairs_ = pairs.num_pairs();
  num_l_ = pairs.num_datacenters();
  num_v_ = pairs.num_access_networks();
  horizon_ = inputs.demand.size();
  soft_ = inputs.soft_demand_penalty > 0.0;

  require(horizon_ >= 1, "WindowProgram: empty demand forecast");
  validate_inputs(inputs);

  const std::size_t w = horizon_;
  const std::size_t p_count = num_pairs_;
  x_offset_ = 0;
  u_offset_ = w * p_count;
  slack_offset_ = 2 * w * p_count;
  const std::size_t n = 2 * w * p_count + (soft_ ? w * num_v_ : 0);

  // Row layout: [states | demand | capacity | x >= 0 | slack >= 0].
  const std::size_t state_rows = w * p_count;
  demand_row_offset_ = state_rows;
  capacity_row_offset_ = demand_row_offset_ + w * num_v_;
  const std::size_t sign_row_offset = capacity_row_offset_ + w * num_l_;
  const std::size_t slack_row_offset = sign_row_offset + w * p_count;
  const std::size_t m = slack_row_offset + (soft_ ? w * num_v_ : 0);

  auto x_var = [&](std::size_t t, std::size_t pair) {
    return static_cast<std::int32_t>(x_offset_ + t * p_count + pair);
  };
  auto u_var = [&](std::size_t t, std::size_t pair) {
    return static_cast<std::int32_t>(u_offset_ + t * p_count + pair);
  };
  auto slack_var = [&](std::size_t t, std::size_t v) {
    return static_cast<std::int32_t>(slack_offset_ + t * num_v_ + v);
  };

  // --- Structure: P and A sparsity (values fixed by model/pairs). ---
  std::vector<Triplet> p_triplets;
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t pair = 0; pair < p_count; ++pair) {
      const double c = model.reconfig_cost[pairs.datacenter_of(pair)];
      if (c > 0.0) {
        // (1/2) z'Pz with P_uu = 2c gives the paper's c * u^2.
        p_triplets.push_back({u_var(t, pair), u_var(t, pair), 2.0 * c});
      }
    }
  }
  problem_.p = linalg::SparseMatrix::from_triplets(static_cast<std::int32_t>(n),
                                                   static_cast<std::int32_t>(n), p_triplets);

  std::vector<Triplet> a_triplets;
  // State equations.
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t pair = 0; pair < p_count; ++pair) {
      const auto row = static_cast<std::int32_t>(t * p_count + pair);
      a_triplets.push_back({row, x_var(t, pair), 1.0});
      a_triplets.push_back({row, u_var(t, pair), -1.0});
      if (t > 0) a_triplets.push_back({row, x_var(t - 1, pair), -1.0});
    }
  }
  // Demand rows: sum_l x / a (+ slack) >= D.
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t v = 0; v < num_v_; ++v) {
      const auto row = static_cast<std::int32_t>(demand_row_offset_ + t * num_v_ + v);
      for (const std::size_t pair : pairs.pairs_of_access_network(v)) {
        a_triplets.push_back({row, x_var(t, pair), 1.0 / pairs.coefficient(pair)});
      }
      if (soft_) a_triplets.push_back({row, slack_var(t, v), 1.0});
    }
  }
  // Capacity rows: sum_v s * x <= C.
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t l = 0; l < num_l_; ++l) {
      const auto row = static_cast<std::int32_t>(capacity_row_offset_ + t * num_l_ + l);
      for (const std::size_t pair : pairs.pairs_of_datacenter(l)) {
        a_triplets.push_back({row, x_var(t, pair), model.server_size});
      }
    }
  }
  // Sign constraints on x.
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t pair = 0; pair < p_count; ++pair) {
      a_triplets.push_back({static_cast<std::int32_t>(sign_row_offset + t * p_count + pair),
                            x_var(t, pair), 1.0});
    }
  }
  // Sign constraints on slack.
  if (soft_) {
    for (std::size_t t = 0; t < w; ++t) {
      for (std::size_t v = 0; v < num_v_; ++v) {
        a_triplets.push_back({static_cast<std::int32_t>(slack_row_offset + t * num_v_ + v),
                              slack_var(t, v), 1.0});
      }
    }
  }
  problem_.a = linalg::SparseMatrix::from_triplets(static_cast<std::int32_t>(m),
                                                   static_cast<std::int32_t>(n), a_triplets);

  // --- Parameters: q and the bounds. ---
  problem_.q.assign(n, 0.0);
  problem_.lower.assign(m, 0.0);
  problem_.upper.assign(m, 0.0);
  write_parameters(model, pairs, inputs);
  problem_.validate();
}

void WindowProgram::update(const DsppModel& model, const PairIndex& pairs,
                           const WindowInputs& inputs) {
  require(pairs.num_pairs() == num_pairs_ && pairs.num_datacenters() == num_l_ &&
              pairs.num_access_networks() == num_v_,
          "WindowProgram::update: pair index does not match the built program");
  require(inputs.demand.size() == horizon_, "WindowProgram::update: horizon changed");
  require((inputs.soft_demand_penalty > 0.0) == soft_,
          "WindowProgram::update: soft/hard demand mode changed (rebuild required)");
  validate_inputs(inputs);
  write_parameters(model, pairs, inputs);
}

void WindowProgram::write_parameters(const DsppModel& model, const PairIndex& pairs,
                                     const WindowInputs& inputs) {
  // View, not copy: update() runs once per MPC step per player, and the
  // value_or form materialized a capacity vector on every call.
  const std::span<const double> capacity = inputs.capacity_override.has_value()
                                               ? std::span<const double>(*inputs.capacity_override)
                                               : std::span<const double>(model.capacity);
  require(capacity.size() == num_l_, "WindowProgram: capacity override size != L");

  const std::size_t w = horizon_;
  const std::size_t p_count = num_pairs_;
  const std::size_t sign_row_offset = capacity_row_offset_ + w * num_l_;
  const std::size_t slack_row_offset = sign_row_offset + w * p_count;

  // Objective: p_t on x, the penalty on slacks, nothing on u (the quadratic
  // reconfiguration term lives in P, which is structural).
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t pair = 0; pair < p_count; ++pair) {
      problem_.q[x_offset_ + t * p_count + pair] =
          inputs.price[t][pairs.datacenter_of(pair)];
      problem_.q[u_offset_ + t * p_count + pair] = 0.0;
    }
    if (soft_) {
      for (std::size_t v = 0; v < num_v_; ++v) {
        problem_.q[slack_offset_ + t * num_v_ + v] = inputs.soft_demand_penalty;
      }
    }
  }
  // State equations: x_0 pins to the initial state, later rows to 0.
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t pair = 0; pair < p_count; ++pair) {
      const std::size_t row = t * p_count + pair;
      const double rhs = t == 0 ? inputs.initial_state[pair] : 0.0;
      problem_.lower[row] = rhs;
      problem_.upper[row] = rhs;
    }
  }
  // Demand rows.
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t v = 0; v < num_v_; ++v) {
      const std::size_t row = demand_row_offset_ + t * num_v_ + v;
      problem_.lower[row] = inputs.demand[t][v];
      problem_.upper[row] = qp::kInfinity;
    }
  }
  // Capacity rows.
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t l = 0; l < num_l_; ++l) {
      const std::size_t row = capacity_row_offset_ + t * num_l_ + l;
      problem_.lower[row] = -qp::kInfinity;
      problem_.upper[row] = capacity[l];
    }
  }
  // Sign rows on x (and slack): [0, inf).
  for (std::size_t row = sign_row_offset; row < slack_row_offset; ++row) {
    problem_.lower[row] = 0.0;
    problem_.upper[row] = qp::kInfinity;
  }
  if (soft_) {
    for (std::size_t row = slack_row_offset; row < slack_row_offset + w * num_v_; ++row) {
      problem_.lower[row] = 0.0;
      problem_.upper[row] = qp::kInfinity;
    }
  }
}

std::size_t WindowProgram::x_variable(std::size_t t, std::size_t pair) const {
  require(t < horizon_ && pair < num_pairs_, "x_variable: index out of range");
  return x_offset_ + t * num_pairs_ + pair;
}

std::size_t WindowProgram::u_variable(std::size_t t, std::size_t pair) const {
  require(t < horizon_ && pair < num_pairs_, "u_variable: index out of range");
  return u_offset_ + t * num_pairs_ + pair;
}

std::size_t WindowProgram::state_row(std::size_t t, std::size_t pair) const {
  require(t < horizon_ && pair < num_pairs_, "state_row: index out of range");
  return t * num_pairs_ + pair;
}

std::size_t WindowProgram::demand_row(std::size_t t, std::size_t v) const {
  require(t < horizon_ && v < num_v_, "demand_row: index out of range");
  return demand_row_offset_ + t * num_v_ + v;
}

std::size_t WindowProgram::sign_row(std::size_t t, std::size_t pair) const {
  require(t < horizon_ && pair < num_pairs_, "sign_row: index out of range");
  return capacity_row_offset_ + horizon_ * num_l_ + t * num_pairs_ + pair;
}

WindowSolution WindowProgram::extract(const qp::QpResult& result) const {
  WindowSolution solution;
  solution.status = result.status;
  solution.objective = result.objective;
  solution.solver_iterations = result.iterations;
  if (result.x.size() != problem_.num_variables()) return solution;

  solution.x.assign(horizon_, Vector(num_pairs_, 0.0));
  solution.u.assign(horizon_, Vector(num_pairs_, 0.0));
  for (std::size_t t = 0; t < horizon_; ++t) {
    for (std::size_t pair = 0; pair < num_pairs_; ++pair) {
      // Clamp tiny ADMM negatives so downstream consumers see feasible x.
      solution.x[t][pair] = std::max(0.0, result.x[x_offset_ + t * num_pairs_ + pair]);
      solution.u[t][pair] = result.x[u_offset_ + t * num_pairs_ + pair];
    }
  }
  if (soft_) {
    solution.unserved.assign(horizon_, Vector(num_v_, 0.0));
    for (std::size_t t = 0; t < horizon_; ++t) {
      for (std::size_t v = 0; v < num_v_; ++v) {
        solution.unserved[t][v] = std::max(0.0, result.x[slack_offset_ + t * num_v_ + v]);
      }
    }
  }
  solution.capacity_duals.assign(horizon_, Vector(num_l_, 0.0));
  if (result.y.size() == problem_.num_constraints()) {
    for (std::size_t t = 0; t < horizon_; ++t) {
      for (std::size_t l = 0; l < num_l_; ++l) {
        // Capacity rows are upper bounds: duals are >= 0 at optimum; clamp
        // solver noise.
        solution.capacity_duals[t][l] =
            std::max(0.0, result.y[capacity_row_offset_ + t * num_l_ + l]);
      }
    }
  }
  return solution;
}

WindowSolution WindowProgram::solve(qp::QpSolver& solver) const {
  return extract(solver.solve(problem_));
}

}  // namespace gp::dspp
