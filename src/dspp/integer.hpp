// Integer server allocations — the paper's stated future work.
//
// The DSPP relaxes server counts to the reals ("we can always obtain a
// feasible solution by rounding up the continuous values", Section IV) and
// its conclusion names the integer-valued problem, "particularly important
// for small scale data centers", as an open direction: "the MPC control
// framework would involve mixed integer programming (MIP) at each stage ...
// Finding an efficient approximation algorithm for this problem would be an
// interesting direction".
//
// This module provides both sides of that direction:
//   * round_up_allocation — the paper's own rounding argument, made
//     concrete: ceil every pair allocation (demand feasibility is
//     monotone, so rounding up never violates eq. (12)), then repair any
//     data-center capacity overruns by flooring the pairs with the
//     smallest fractional parts wherever the demand constraints allow it;
//   * solve_integer_placement — an exact branch-and-bound MIP for the
//     single-period placement (LP-relaxation bounds via the library's own
//     QP solver, branching on the most fractional variable), practical for
//     the small instances where integrality actually matters and used to
//     measure the rounding heuristic's optimality gap.
#pragma once

#include <optional>

#include "dspp/model.hpp"
#include "qp/solver.hpp"

namespace gp::dspp {

/// Result of integerizing an allocation.
struct IntegerizeResult {
  bool feasible = false;           ///< demand AND capacity satisfiable in integers
  linalg::Vector allocation;       ///< integral x per pair
  double objective = 0.0;          ///< p . x of the integral allocation
  double continuous_objective = 0.0;  ///< p . x of the input (lower bound)

  /// Relative integrality cost: objective / continuous_objective - 1.
  double gap() const {
    return continuous_objective > 0.0 ? objective / continuous_objective - 1.0 : 0.0;
  }
};

/// Rounds a (feasible) continuous allocation up to integers and repairs
/// capacity overruns (see file comment). `price` is $/server/period per DC.
IntegerizeResult round_up_allocation(const DsppModel& model, const PairIndex& pairs,
                                     const linalg::Vector& continuous,
                                     const linalg::Vector& demand,
                                     const linalg::Vector& price);

/// Outcome of the exact integer placement.
struct IntegerPlacementResult {
  enum class Status { kOptimal, kInfeasible, kNodeLimit };
  Status status = Status::kInfeasible;
  linalg::Vector allocation;  ///< integral x per pair (valid when not infeasible)
  double objective = 0.0;
  double lower_bound = 0.0;   ///< best LP bound proven
  int nodes_explored = 0;
};

/// Exact single-period integer placement:
///   min p.x  s.t.  sum_l x_lv / a_lv >= D_v,  sum_v s x_lv <= C_l,
///                  x integral >= 0.
/// Branch-and-bound with LP-relaxation bounds from `solver`. Intended for
/// small pair counts (<= ~20); larger instances should use the rounding
/// heuristic.
IntegerPlacementResult solve_integer_placement(const DsppModel& model, const PairIndex& pairs,
                                               const linalg::Vector& demand,
                                               const linalg::Vector& price,
                                               qp::QpSolver& solver);

}  // namespace gp::dspp
