#include "dspp/integer.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/error.hpp"

namespace gp::dspp {

using linalg::Triplet;
using linalg::Vector;

namespace {

constexpr double kIntegralEps = 1e-9;

// Branch-and-bound limits.
constexpr int kMaxNodes = 20000;
/// Values within this of an integer count as integral. Must sit above the
/// relaxation solver's accuracy (ADMM ~1e-4, IPM ~1e-8) or branching
/// never terminates on solver noise.
constexpr double kIntegralityTolerance = 5e-4;
constexpr double kOptimalityGap = 1e-6;  ///< stop when best bound is this close

double placement_cost(const PairIndex& pairs, const Vector& x, const Vector& price) {
  double cost = 0.0;
  for (std::size_t p = 0; p < pairs.num_pairs(); ++p) {
    cost += price[pairs.datacenter_of(p)] * x[p];
  }
  return cost;
}

/// Demand slack per access network: sum_l x/a - D (negative = violated).
Vector demand_slack(const PairIndex& pairs, const Vector& x, const Vector& demand) {
  Vector slack(pairs.num_access_networks(), 0.0);
  for (std::size_t v = 0; v < pairs.num_access_networks(); ++v) {
    double served = 0.0;
    for (const std::size_t p : pairs.pairs_of_access_network(v)) {
      served += x[p] / pairs.coefficient(p);
    }
    slack[v] = served - demand[v];
  }
  return slack;
}

}  // namespace

IntegerizeResult round_up_allocation(const DsppModel& model, const PairIndex& pairs,
                                     const Vector& continuous, const Vector& demand,
                                     const Vector& price) {
  require(continuous.size() == pairs.num_pairs(), "round_up_allocation: allocation size");
  require(demand.size() == pairs.num_access_networks(), "round_up_allocation: demand size");
  require(price.size() == pairs.num_datacenters(), "round_up_allocation: price size");

  IntegerizeResult result;
  result.continuous_objective = placement_cost(pairs, continuous, price);

  // --- Consolidate slivers first. A continuous optimum may spread tiny
  // fractions of a server across many pairs; ceiling each one would open a
  // whole server per sliver (catastrophic at small scale). Instead, move
  // any allocation below half a server onto the access network's largest
  // pair, scaled by the coefficient ratio so the SERVED demand x/a is
  // exactly preserved.
  Vector consolidated = continuous;
  for (std::size_t p = 0; p < pairs.num_pairs(); ++p) {
    require(continuous[p] >= -1e-9, "round_up_allocation: negative allocation");
    consolidated[p] = std::max(0.0, consolidated[p]);
  }
  for (std::size_t v = 0; v < pairs.num_access_networks(); ++v) {
    const auto& candidates = pairs.pairs_of_access_network(v);
    std::size_t anchor = candidates.front();
    for (const std::size_t p : candidates) {
      if (consolidated[p] > consolidated[anchor]) anchor = p;
    }
    if (consolidated[anchor] <= 0.0) continue;
    for (const std::size_t p : candidates) {
      if (p == anchor || consolidated[p] >= 0.5 || consolidated[p] <= 0.0) continue;
      consolidated[anchor] +=
          consolidated[p] * pairs.coefficient(anchor) / pairs.coefficient(p);
      consolidated[p] = 0.0;
    }
  }

  // Ceil (values already integral within tolerance stay put).
  Vector x(pairs.num_pairs(), 0.0);
  for (std::size_t p = 0; p < pairs.num_pairs(); ++p) {
    x[p] = std::ceil(consolidated[p] - kIntegralEps);
  }

  // Capacity repair: floor pairs while demand slack allows.
  Vector slack = demand_slack(pairs, x, demand);
  for (std::size_t l = 0; l < pairs.num_datacenters(); ++l) {
    double used = 0.0;
    for (const std::size_t p : pairs.pairs_of_datacenter(l)) used += model.server_size * x[p];
    while (used > model.capacity[l] + 1e-9) {
      // Candidate: the pair in this DC whose removal of one server leaves
      // the most demand slack.
      std::size_t best_pair = pairs.num_pairs();
      double best_margin = -1.0;
      for (const std::size_t p : pairs.pairs_of_datacenter(l)) {
        if (x[p] < 1.0 - kIntegralEps) continue;
        const std::size_t v = pairs.access_network_of(p);
        const double margin = slack[v] - 1.0 / pairs.coefficient(p);
        if (margin >= -1e-9 && margin > best_margin) {
          best_margin = margin;
          best_pair = p;
        }
      }
      if (best_pair == pairs.num_pairs()) {
        return result;  // infeasible: cannot shed capacity without demand loss
      }
      x[best_pair] -= 1.0;
      slack[pairs.access_network_of(best_pair)] -= 1.0 / pairs.coefficient(best_pair);
      used -= model.server_size;
    }
  }

  // Final feasibility audit.
  slack = demand_slack(pairs, x, demand);
  for (double s : slack) {
    if (s < -1e-6) return result;
  }
  result.feasible = true;
  result.allocation = std::move(x);
  result.objective = placement_cost(pairs, result.allocation, price);
  return result;
}

namespace {

/// Builds the single-period LP (as a QpProblem with P = 0) with per-variable
/// bounds appended as identity rows [n demand+capacity rows | n bound rows].
qp::QpProblem build_relaxation(const DsppModel& model, const PairIndex& pairs,
                               const Vector& demand, const Vector& price,
                               const Vector& lower_bounds, const Vector& upper_bounds) {
  const std::size_t n = pairs.num_pairs();
  const std::size_t num_v = pairs.num_access_networks();
  const std::size_t num_l = pairs.num_datacenters();
  qp::QpProblem problem;
  problem.p = linalg::SparseMatrix::from_triplets(static_cast<std::int32_t>(n),
                                                  static_cast<std::int32_t>(n), {});
  problem.q.assign(n, 0.0);
  for (std::size_t p = 0; p < n; ++p) problem.q[p] = price[pairs.datacenter_of(p)];

  std::vector<Triplet> triplets;
  const std::size_t m = num_v + num_l + n;
  problem.lower.assign(m, 0.0);
  problem.upper.assign(m, 0.0);
  for (std::size_t v = 0; v < num_v; ++v) {
    for (const std::size_t p : pairs.pairs_of_access_network(v)) {
      triplets.push_back({static_cast<std::int32_t>(v), static_cast<std::int32_t>(p),
                          1.0 / pairs.coefficient(p)});
    }
    problem.lower[v] = demand[v];
    problem.upper[v] = qp::kInfinity;
  }
  for (std::size_t l = 0; l < num_l; ++l) {
    for (const std::size_t p : pairs.pairs_of_datacenter(l)) {
      triplets.push_back({static_cast<std::int32_t>(num_v + l), static_cast<std::int32_t>(p),
                          model.server_size});
    }
    problem.lower[num_v + l] = -qp::kInfinity;
    problem.upper[num_v + l] = model.capacity[l];
  }
  for (std::size_t p = 0; p < n; ++p) {
    triplets.push_back({static_cast<std::int32_t>(num_v + num_l + p),
                        static_cast<std::int32_t>(p), 1.0});
    problem.lower[num_v + num_l + p] = lower_bounds[p];
    problem.upper[num_v + num_l + p] = upper_bounds[p];
  }
  problem.a = linalg::SparseMatrix::from_triplets(static_cast<std::int32_t>(m),
                                                  static_cast<std::int32_t>(n), triplets);
  return problem;
}

struct Node {
  Vector lower, upper;
  double bound = 0.0;  // parent LP objective (priority)
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const { return a.bound > b.bound; }
};

}  // namespace

IntegerPlacementResult solve_integer_placement(const DsppModel& model, const PairIndex& pairs,
                                               const Vector& demand, const Vector& price,
                                               qp::QpSolver& solver) {
  require(demand.size() == pairs.num_access_networks(), "solve_integer_placement: demand");
  require(price.size() == pairs.num_datacenters(), "solve_integer_placement: price");
  const std::size_t n = pairs.num_pairs();

  IntegerPlacementResult result;
  std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
  open.push({Vector(n, 0.0), Vector(n, qp::kInfinity), 0.0});

  double incumbent = std::numeric_limits<double>::infinity();
  Vector incumbent_x;
  double proven_bound = std::numeric_limits<double>::infinity();

  while (!open.empty() && result.nodes_explored < kMaxNodes) {
    Node node = open.top();
    open.pop();
    ++result.nodes_explored;
    if (node.bound >= incumbent - kOptimalityGap) break;  // best-first: done

    const qp::QpProblem relaxation =
        build_relaxation(model, pairs, demand, price, node.lower, node.upper);
    const qp::QpResult lp = solver.solve(relaxation);
    if (lp.status == qp::SolveStatus::kPrimalInfeasible) continue;
    if (!lp.ok()) continue;  // treat numerical trouble as pruned (bound kept by parent)
    proven_bound = std::min(proven_bound, std::max(node.bound, lp.objective));
    if (lp.objective >= incumbent - kOptimalityGap) continue;

    // Most fractional variable.
    std::size_t branch_var = n;
    double worst_fraction = kIntegralityTolerance;
    for (std::size_t p = 0; p < n; ++p) {
      const double value = std::max(0.0, lp.x[p]);
      const double fraction = std::abs(value - std::round(value));
      if (fraction > worst_fraction) {
        worst_fraction = fraction;
        branch_var = p;
      }
    }
    if (branch_var == n) {
      // Integral: candidate incumbent (snap tiny noise).
      Vector x(n, 0.0);
      for (std::size_t p = 0; p < n; ++p) x[p] = std::round(std::max(0.0, lp.x[p]));
      const double objective = [&] {
        double total = 0.0;
        for (std::size_t p = 0; p < n; ++p) total += price[pairs.datacenter_of(p)] * x[p];
        return total;
      }();
      if (objective < incumbent) {
        incumbent = objective;
        incumbent_x = std::move(x);
      }
      continue;
    }

    const double value = lp.x[branch_var];
    Node down = node;
    down.bound = lp.objective;
    down.upper[branch_var] = std::floor(value);
    if (down.upper[branch_var] >= down.lower[branch_var] - 1e-12) open.push(std::move(down));
    Node up = node;
    up.bound = lp.objective;
    up.lower[branch_var] = std::ceil(value);
    open.push(std::move(up));
  }

  if (!std::isfinite(incumbent)) {
    result.status = open.empty() ? IntegerPlacementResult::Status::kInfeasible
                                 : IntegerPlacementResult::Status::kNodeLimit;
    return result;
  }
  result.allocation = std::move(incumbent_x);
  result.objective = incumbent;
  result.lower_bound = std::isfinite(proven_bound) ? std::min(proven_bound, incumbent)
                                                   : incumbent;
  result.status = (open.empty() || result.nodes_explored < kMaxNodes)
                      ? IntegerPlacementResult::Status::kOptimal
                      : IntegerPlacementResult::Status::kNodeLimit;
  return result;
}

}  // namespace gp::dspp
