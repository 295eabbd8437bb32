// Exact per-network solve of a window program (DESIGN.md §12).
//
// In the window QP (window_program.hpp) every state, demand and sign row
// touches the pairs of ONE access network; only the capacity rows couple
// networks. Drop the capacity rows and the window splits into V independent
// network QPs. Eliminating u_t = x_t - x_{t-1} (x_{-1} = x_0), network v's
// QP over its n_v pairs and W periods is
//
//   minimize   1/2 x'Hx + q'x         H = blockdiag_j(2 c_j T)
//   subject to sum_j x_{tj} / a_j >= D_t    (one demand row per period)
//              x >= 0
//
// where T is the W x W tridiagonal [2 -1; -1 2 .. -1; -1 1] and
// q_{tj} = p_{t,l(j)} - [t == 0] 2 c_j x_{0j}. With every c_j > 0, H is
// positive definite, so the network QP has a unique optimum.
//
// Each network is solved by a primal-dual active-set method (PDAS;
// Hintermueller, Ito & Kunisch, SIAM J. Optim. 13(3), 2002): guess which
// sign and demand rows hold with equality, solve that equality-constrained
// QP exactly, read the multipliers, update the guess. The first guess is the
// network's previous active set shifted by one period (the MPC window moved
// one period), or, cold, each period's demand on its cheapest p_l a_lv pair.
// A repeated guess or kPdasMaxIterations guesses hand the network to a
// primal active-set safeguard (Nocedal & Wright Alg. 16.3) started from the
// cheapest-pair feasible point, which terminates on strictly convex QPs.
// Either way the returned point is one solve on the final active set, so it
// depends on that set alone and not on the route to it.
//
// The window is accepted only under a certificate: every network passes the
// full KKT test (primal feasibility, stationarity, dual sign,
// complementarity, each within kCertificateTolerance relative) and the
// summed s x satisfies every capacity row. The relaxation's optimum is then
// feasible for the full window, hence optimal, and every capacity dual is
// exactly 0. Otherwise the caller solves the full window by ADMM.
//
// Soft demand (Algorithm 2's best responses) adds an unserved slack
// xi_t >= 0 to each demand row, Sum_j x_tj / a_j + xi_t >= D_t, at pi per
// unit. The relaxation above is solved unchanged (it reads neither pi nor
// the capacity rows). If its demand duals satisfy lambda_t <= pi, then
// (x*, xi = 0) with slack-sign dual pi - lambda_t >= 0 meets the soft
// window's KKT conditions, so a soft window is accepted under one more
// test: every lambda_t <= pi + kCertificateTolerance * (dual scale).
//
// Between Jacobi rounds of Algorithm 2 only the quota moves, and the
// relaxation does not read it. A warm solve whose initial state, demand and
// price are bitwise those of the last certified solve therefore keeps that
// relaxation and re-runs only the two tests: the lambda <= pi test and the
// capacity rows. So a round that starts contended can certify once its
// quota has grown, with the point the solve returned for these inputs.
//
// Networks are dealt to pool lanes by LPT on n_v W and each writes only its
// own slot, so the result is bit-identical at any lane count.
#pragma once

#include <cstdint>
#include <vector>

#include "dspp/window_program.hpp"
#include "qp/problem.hpp"

namespace gp::dspp {

/// Why a separable attempt did not yield the window's optimum.
enum class SeparableOutcome {
  kCertified,         ///< every network certified, every capacity row slack
  kCapacityViolated,  ///< networks certified, but their sum breaks a capacity row
  kSlackNeeded,       ///< soft window: some demand dual exceeds the penalty
  kUncertified,       ///< some network failed the KKT certificate
};

/// Per-network exact solver of a window (see file comment).
/// Thread-compatible: one instance per window solver. Keeps each network's
/// workspace and last active set across solve() calls; after the first solve
/// at a horizon and lane count, a solve allocates nothing.
class SeparableWindow {
 public:
  /// PDAS guesses per network before the safeguard takes over.
  static constexpr int kPdasMaxIterations = 8;
  /// Relative KKT tolerance of the certificate. Every residual of an
  /// accepted network is at most this times its scale (1 + the largest
  /// demand or allocation for primal rows, 1 + the largest gradient term for
  /// dual rows): three orders tighter than ADMM's 1e-6 stopping rule.
  static constexpr double kCertificateTolerance = 1e-9;

  /// True when the window splits: every pair's DC has c_l > 0 (with c = 0
  /// the eliminated Hessian is singular and the optimum need not be unique).
  static bool applies_to(const DsppModel& model, const PairIndex& pairs);

  /// The model and pair index must outlive the solver; requires applies_to.
  SeparableWindow(const DsppModel& model, const PairIndex& pairs);

  /// Solves every network's relaxation of the window `inputs` and tests it
  /// against the window (see SeparableOutcome). `warm` starts each network
  /// from its previous active set shifted by one period, or keeps the last
  /// relaxation when the initial state, demand and price are bitwise
  /// unchanged; `max_lanes` caps the pool lanes (0 = all).
  SeparableOutcome solve(const WindowInputs& inputs, bool warm, std::size_t max_lanes);

  /// The last solve's point as a window solution: x, u = x_t - x_{t-1},
  /// zero capacity duals, zero unserved demand [t][v] when the window is
  /// soft, the objective including c u_0^2, status kOptimal. Meaningful
  /// after a kCertified solve.
  WindowSolution solution(const WindowInputs& inputs) const;

  /// The last solve's point in `program`'s variable and row layout (duals in
  /// the QP's sign convention, capacity duals 0): the warm start of the ADMM
  /// fallback of a hard window.
  void warm_start_point(const WindowProgram& program, linalg::Vector& z,
                        linalg::Vector& y) const;

  /// Whether the last solve kept the previous relaxation (no network solved).
  bool last_reused() const { return last_reused_; }
  /// PDAS plus safeguard iterations of the last solve, summed over networks
  /// (0 when it kept the previous relaxation).
  int last_active_set_steps() const { return last_steps_; }
  /// Networks the safeguard solved in the last solve.
  int last_safeguard_runs() const { return last_safeguard_runs_; }
  /// Number of access networks (independent subproblems).
  std::size_t num_networks() const { return networks_.size(); }
  /// Network v's active-set iterations in the last solve, and whether the
  /// safeguard solved it.
  int last_steps(std::size_t v) const { return networks_[v].steps; }
  bool last_safeguarded(std::size_t v) const { return networks_[v].safeguarded; }

 private:
  struct Network {
    std::vector<std::size_t> pairs;  ///< global pair ids, ascending
    linalg::Vector inv_a;            ///< 1 / a_j
    linalg::Vector two_c;            ///< 2 c_j
    // Per-solve data; x-indexed arrays are pair-major (i = j W + t).
    linalg::Vector q, x, mu, grad, step;
    linalg::Vector demand, lambda, nu;  ///< per period
    std::vector<std::uint8_t> bound;    ///< x_i held at 0 (sign row active)
    std::vector<std::uint8_t> active;   ///< demand row t held with equality
    std::vector<std::uint8_t> visited;  ///< PDAS guesses, kPdasMaxIterations slots
    std::vector<std::size_t> cheapest;  ///< per period: min p a pair (local index)
    // Reduced-solve workspace.
    linalg::Vector ldl_d, ldl_l;        ///< per pair: tridiagonal LDL' of H_FF
    linalg::Vector hinv;                ///< per pair W x W: H_FF^{-1} columns of active rows
    linalg::Vector hr;                  ///< H_FF^{-1} r_F
    linalg::Vector schur, schur_rhs;    ///< W x W and W
    std::vector<std::int32_t> slot;     ///< per (j, t): position among pair j's free periods
    std::vector<std::int32_t> free_t;   ///< per pair: its free periods, ascending
    std::vector<std::int32_t> free_n;   ///< per pair: number of free periods
    std::vector<std::int32_t> rows;     ///< active demand rows, ascending
    int steps = 0;
    bool safeguarded = false;
    bool certified = false;
    bool has_active_set = false;        ///< a previous solve left (bound, active)
  };

  void size_network(Network& net) const;
  void load(Network& net, std::size_t v, const WindowInputs& inputs) const;
  void solve_network(Network& net, bool warm) const;
  void cold_sets(Network& net) const;
  void shift_sets(Network& net) const;
  /// Drops zero-demand active rows with no free pair (they hold at x = 0).
  /// Returns false when a positive-demand period has every pair bound: the
  /// guess is infeasible and plain PDAS stalls on it.
  bool drop_empty_rows(Network& net) const;
  /// Solves min 1/2 z'Hz + r'z s.t. z_bound = 0, G_active z = b (b = D when
  /// `demand_rhs`, else 0) into z, with row multipliers in nu. Returns false
  /// on a singular reduced system.
  bool solve_reduced(Network& net, const linalg::Vector& r, bool demand_rhs,
                     linalg::Vector& z) const;
  /// H z + r at index (j, t).
  double gradient_at(const Network& net, const linalg::Vector& z, const linalg::Vector& r,
                     std::size_t j, std::size_t t) const;
  /// Solves on the current sets and fills x, lambda, mu. False when singular.
  bool solve_on_sets(Network& net) const;
  bool pdas(Network& net) const;
  bool safeguard(Network& net) const;
  /// The network's KKT residuals with each demand row scaled by
  /// 1 / max_j(1/a_j), so every row is in servers and every dual in $/server.
  qp::KktCertificate certificate(const Network& net) const;
  /// Residual scales of the certificate: 1 + the largest row value or bound
  /// (primal) and 1 + the largest gradient term (dual).
  void scales(const Network& net, double& primal, double& dual) const;
  bool certified(const Network& net) const;
  /// Solves every network on pool lanes; true when all certified.
  bool solve_relaxation(const WindowInputs& inputs, bool warm, std::size_t max_lanes);
  /// The network's demand duals within pi (soft windows; see file comment).
  bool within_penalty(const Network& net, double penalty) const;
  /// Whether `inputs` has the initial state, demand and price of the kept
  /// relaxation, bit for bit.
  bool same_relaxation(const WindowInputs& inputs) const;
  /// Keeps the initial state, demand and price the relaxation was solved for.
  void keep_relaxation(const WindowInputs& inputs);

  const DsppModel* model_ = nullptr;
  const PairIndex* pairs_ = nullptr;
  std::size_t horizon_ = 0;
  std::vector<Network> networks_;
  std::vector<std::size_t> local_of_pair_;  ///< pair -> index j within its network
  std::size_t dealt_lanes_ = 0;
  std::vector<std::vector<std::size_t>> lane_networks_;
  int last_steps_ = 0;
  int last_safeguard_runs_ = 0;
  bool last_reused_ = false;
  // The relaxation's inputs (demand [t][v] and price [t][l] flattened), set
  // when every network certified; relaxation_kept_ says they are valid.
  linalg::Vector kept_state_, kept_demand_, kept_price_;
  bool relaxation_kept_ = false;
};

}  // namespace gp::dspp
