// The resource-competition game and its equilibrium computation
// (Section VI, Algorithm 2 of the paper).
//
// N providers share data centers with capacities C^l. Each iteration, every
// provider solves its best-response DSPP against its current capacity quota
// C^i and reports the dual variable lambda^{il} of each capacity constraint.
// The coordinator then raises quotas where a provider's dual (congestion
// price) is high and renormalizes so per-DC quotas sum to C^l:
//
//     Cbar^i = C^i + alpha * lambda^i,      C^i := Cbar^i * C / sum_j Cbar^j
//
// iterating until total cost changes by less than epsilon (relative), the
// paper's stability criterion. Quota-infeasible intermediate states are
// handled with unserved-demand slacks (soft demand), so every best response
// is well-defined.
//
// The social-welfare problem (SWP) — the same joint program with a single
// shared capacity constraint — is solved directly as one QP; comparing its
// cost with the equilibrium cost gives the empirical price of anarchy /
// stability of Definitions 3 (Theorem 1 predicts PoS = 1).
#pragma once

#include <array>
#include <optional>

#include "dspp/window_solver.hpp"
#include "game/provider.hpp"
#include "qp/admm_solver.hpp"

namespace gp::game {

/// Which quota update Algorithm 2's coordinator applies each iteration.
enum class QuotaUpdateRule {
  /// The paper's literal rule: Cbar^i = C^i + alpha * lambda^i with a FIXED
  /// alpha, then multiplicative renormalization onto the capacity simplex.
  /// Its effective step grows with the dual magnitude (and therefore with
  /// the prediction-window length), which is what produces the paper's
  /// Fig. 8 trend — and also why it can oscillate on hard instances.
  kPaperFixedStep,
  /// Stabilized exchange: capacity moves along mean-centred duals with a
  /// spread-normalized, diminishing step. Scale-invariant and provably
  /// convergent for the piecewise-linear dual landscape; the production
  /// default.
  kStabilized,
};

/// Consecutive sub-epsilon cost changes Algorithm 2 needs before declaring
/// convergence (guards against early cost plateaus while quotas are still
/// being exchanged).
inline constexpr int kStableIterationsRequired = 3;

/// Knobs for Algorithm 2.
struct GameSettings {
  QuotaUpdateRule update_rule = QuotaUpdateRule::kStabilized;
  double epsilon = 0.05;            ///< relative cost-change convergence threshold
  double paper_step_size = 0.05;    ///< kPaperFixedStep: the fixed alpha on raw duals
  int max_iterations = 500;
  double soft_demand_penalty = 5.0; ///< $ per unserved req/s (transient infeasibility)
  /// Parallel lanes for the per-iteration best responses (a Jacobi round:
  /// every response depends only on the quotas fixed at the top of the
  /// iteration, so they are computed concurrently, dealt to lanes by their
  /// measured cost). 0 = the global thread pool's width (GEOPLACE_THREADS /
  /// hardware concurrency). Results are bit-identical at any setting — each
  /// provider has its own solver and results land by provider index.
  std::size_t num_threads = 0;
  /// Best-response solver settings (polish is always forced on). Warm
  /// starting is on by default: between Jacobi rounds only a provider's
  /// quota moves, and between periods of a persistent game only its window
  /// inputs, so each best response starts from that provider's previous
  /// solution. Each provider has its own solver, so no provider ever starts
  /// from another's iterate.
  qp::AdmmSettings solver{.auto_warm_start = true};
};

/// Outcome of the iterative equilibrium computation.
struct GameResult {
  bool converged = false;
  int iterations = 0;
  double total_cost = 0.0;                    ///< sum_i J^i at the final iterate
  std::vector<double> provider_costs;         ///< J^i
  std::vector<linalg::Vector> quotas;         ///< [i][l] final capacity split
  std::vector<dspp::WindowSolution> solutions;///< final best responses
  std::vector<double> cost_history;           ///< total cost after each iteration
  double total_unserved = 0.0;                ///< residual unserved demand (req/s-periods)
};

/// Solution of the social-welfare problem.
struct SocialWelfareResult {
  bool solved = false;
  double total_cost = 0.0;
  std::vector<double> provider_costs;
  std::vector<std::vector<linalg::Vector>> x;  ///< [i][t][pair]
};

/// The game itself (see file comment).
class CompetitionGame {
 public:
  /// All providers must share the window length; `capacity` is C^l for the
  /// shared data centers (same L as every provider's network).
  CompetitionGame(std::vector<ProviderConfig> providers, linalg::Vector capacity,
                  GameSettings settings = {});

  /// Runs Algorithm 2. Quotas start from `initial_quotas` when given
  /// ([i][l], each column summing to C^l) — the dynamic simulation warm-
  /// starts each period from the previous equilibrium — and from the equal
  /// split C/N otherwise.
  GameResult run(std::optional<std::vector<linalg::Vector>> initial_quotas = std::nullopt);

  /// Replaces provider i's window inputs (same shapes as at construction)
  /// for the next run(). The provider's solver keeps its structure cache,
  /// adapted rho and last iterate, so a receding-horizon caller re-runs the
  /// same game every period instead of rebuilding it.
  void set_window(std::size_t i, linalg::Vector initial_state,
                  std::vector<linalg::Vector> demand, std::vector<linalg::Vector> price);

  /// Solves the SWP as a single joint QP (soft demand with the same penalty,
  /// so costs are comparable with run()).
  SocialWelfareResult solve_social_welfare();

  /// Caps the lanes of later run() calls (GameSettings::num_threads).
  void set_num_threads(std::size_t num_threads) { settings_.num_threads = num_threads; }

  std::size_t num_providers() const { return providers_.size(); }
  const dspp::PairIndex& pairs(std::size_t i) const { return pair_index_[i]; }

 private:
  /// Best response of provider i under its quota; returns the solution.
  /// Thread-safe across DISTINCT i: each provider has its own window
  /// solver, so Jacobi rounds run concurrently and each keeps its own
  /// separable relaxation and active sets, program, cached KKT structure,
  /// polish factorization and (by default) warm-start iterate across game
  /// iterations and set_window() calls.
  dspp::WindowSolution best_response(std::size_t i, const linalg::Vector& quota);

  /// Shape checks on provider i's window inputs, shared by the constructor
  /// and set_window().
  void check_window(std::size_t i, const linalg::Vector& initial_state,
                    const std::vector<linalg::Vector>& demand,
                    const std::vector<linalg::Vector>& price) const;

  std::vector<ProviderConfig> providers_;
  std::vector<dspp::PairIndex> pair_index_;
  linalg::Vector capacity_;
  GameSettings settings_;
  std::size_t horizon_ = 0;
  /// One window solver per provider, pointing into providers_ and
  /// pair_index_ (never resized after construction). A shared solver would
  /// see different providers' problems back to back, which defeats the
  /// structure cache and the warm start; per provider, a quota change (or
  /// a set_window() call) is a parameter update that starts from the
  /// provider's own previous solution.
  std::vector<dspp::WindowSolver> responders_;
  /// Wall time (ns) of each provider's last best response in round 0 ([0])
  /// and in a later round ([1]) of run(); 0 until measured. Round 0 follows
  /// a window change, a later round only a quota change, so the two differ.
  /// They weigh the responses when a round deals them to lanes.
  std::array<std::vector<double>, 2> response_ns_;
  /// Solves the joint social-welfare QP.
  qp::AdmmSolver welfare_solver_;
};

/// Empirical efficiency ratio sum_i J^i(NE) / J(SWP) — the price of
/// anarchy/stability estimate of Definition 3 (>= 1 up to solver tolerance).
double efficiency_ratio(const GameResult& equilibrium, const SocialWelfareResult& welfare);

}  // namespace gp::game
