// Per-DC block decomposition of the window program (DESIGN.md §10).
//
// The window QP's rows split cleanly by data center — state, capacity and
// sign rows touch one DC's pairs only — except the demand rows, which couple
// every DC serving the same access network. BlockWindowSolver partitions the
// fleet into contiguous DC blocks, moves the demand coupling into a
// consensus penalty, and solves the blocks with independent structure-cached
// AdmmSolvers under a sharing-ADMM outer loop (Boyd §7.3):
//
//   block step    x_b := argmin f_b(x_b) + (rho/2) || G_b x_b - (w_b - u) ||^2
//   share step    w   := project {sum_b w_b >= D'} of (g_b + u)
//   dual step     u   := u + g_b - w_b         (identical across blocks)
//
// where G_b maps a block's allocations onto the demand rows it covers
// (entries 1/a_lv, rows normalized by max(D, 1)) and D' is the normalized
// demand. The per-block quadratic penalty rho G_b' G_b has a FIXED sparsity
// pattern, so within one solve only the linear term moves across consensus
// iterations — every inner solve after the first reuses the cached
// factorization outright.
//
// num_blocks = 1 is the exact path, and the one every repeated window solve
// in the library takes (MpcController, the game's best responses). A window
// whose pairs all have c_l > 0 is first solved network by network
// (dspp::SeparableWindow, DESIGN.md §12) and accepted under a KKT
// certificate with every capacity row slack and, under soft demand, every
// demand dual within the penalty. Every other window — a c = 0 pair, a
// binding capacity row, a soft window that leaves demand unserved or an
// uncertified network — goes to a persistent WindowProgram,
// parameter-updated in place and solved by one AdmmSolver configured by
// `solver` as given. After a failed separable attempt on a hard window that
// solver is warm-started from the separable point; a soft window (a best
// response) starts from the solver's own last iterate, as `solver` asks.
// Block and network solves run on the deterministic thread pool with
// results written to per-block or per-network slots, so solutions are
// bit-identical at any GEOPLACE_THREADS / max_lanes setting.
#pragma once

#include <memory>
#include <optional>

#include "dspp/separable_window.hpp"
#include "dspp/window_program.hpp"
#include "qp/admm_solver.hpp"

namespace gp::dspp {

/// Configuration of the block-decomposed window solver.
struct BlockWindowSettings {
  /// Number of per-DC block groups (clamped to L). 1 = exact dense solve.
  std::size_t num_blocks = 1;
  /// Lane cap for concurrent block solves (0 = all pool lanes). Any value
  /// yields bit-identical results; this only bounds parallelism.
  std::size_t max_lanes = 0;
  /// Sharing-ADMM outer loop cap. The loop stops on feasibility and cost
  /// stationarity, not on an optimality gap: tests bound the
  /// receding-horizon cost at 15% above the exact controller's, and
  /// scale_smoke measured a 9% gap. A certified stopping rule is an open
  /// ROADMAP item ("Certified consensus").
  int max_consensus_iterations = 120;
  /// Stop when the worst normalized demand shortfall falls below this.
  double consensus_tolerance = 1e-3;
  /// Keep the window program (exact path) or the block programs and
  /// consensus state (block path) across solve() calls, updating their
  /// parameters in place. On the exact path this also starts each network's
  /// separable solve from its previous active set shifted by one period
  /// (or keeps the last relaxation when only the quota moved);
  /// ADMM warm starts and structure caching come from `solver`; block
  /// solvers always use both.
  bool reuse_solver_state = true;
  /// Exact-path solver settings, used unchanged; also the per-block inner
  /// solver settings (with warm start and structure cache forced on).
  qp::AdmmSettings solver;
};

/// Which exact-path solver took each window, and why ADMM did.
struct WindowPathStats {
  long long separable = 0;               ///< certified per-network solves
  long long fallback_capacity = 0;       ///< separable point broke a capacity row
  long long fallback_zero_reconfig = 0;  ///< some pair has c_l = 0
  long long fallback_slack = 0;          ///< soft window with a demand dual above the penalty
  long long fallback_uncertified = 0;    ///< some network failed its certificate
  long long safeguard_runs = 0;          ///< networks the PDAS safeguard solved
  long long relaxation_reused = 0;       ///< separable attempts that kept the last relaxation

  long long fallbacks() const {
    return fallback_capacity + fallback_zero_reconfig + fallback_slack + fallback_uncertified;
  }
};

/// Solves window programs by block decomposition (see file comment).
/// Thread-compatible: one instance per control loop. The model and pair
/// index must outlive the solver.
class BlockWindowSolver {
 public:
  BlockWindowSolver(const DsppModel& model, const PairIndex& pairs,
                    BlockWindowSettings settings);

  /// Solves the window program for these inputs. In reuse mode, programs
  /// are parameter-updated in place, the separable path keeps its active
  /// sets and last relaxation, and solvers warm-start from the previous
  /// call when their settings ask for it (always, for block solvers). Soft
  /// demand (soft_demand_penalty > 0) requires num_blocks == 1 (consensus
  /// mode already relaxes demand).
  WindowSolution solve(WindowInputs inputs);

  std::size_t num_blocks() const { return num_blocks_; }

  /// Consensus iterations the last solve() used (0 on the exact path).
  int last_consensus_iterations() const { return last_consensus_iterations_; }

  /// Exact-path counts since construction: separable solves and ADMM
  /// fallbacks by reason (all 0 on the consensus path).
  const WindowPathStats& path_stats() const { return path_stats_; }

  /// Structure-cache counters of the underlying solver (the exact-path
  /// solver when num_blocks == 1, block 0's inner solver otherwise).
  const qp::AdmmCacheStats& cache_stats() const;

 private:
  struct Block {
    std::vector<std::size_t> pair_ids;      ///< global pair ids, ascending
    std::vector<std::size_t> dcs;           ///< global DC ids in this block
    std::vector<std::uint32_t> touched_v;   ///< access networks covered, ascending
    // Assembly metadata (filled when the horizon is known).
    qp::QpProblem problem;
    std::unique_ptr<qp::AdmmSolver> solver;
    linalg::Vector x;                       ///< last primal solution
    linalg::Vector y;                       ///< last duals
    linalg::Vector g;                       ///< G_b x_b per (t, v) row, size W*V
    linalg::Vector w;                       ///< consensus targets per row
    int iterations = 0;                     ///< inner iterations, last consensus pass
    bool solved_ok = true;
  };

  void build_blocks();
  /// (Re)assembles block b's QP for the current horizon and row scales.
  /// `cold` additionally resets the inner solver and consensus state;
  /// warm re-assembly keeps both (same sparsity, new penalty values).
  void assemble(std::size_t b, const WindowInputs& inputs, bool cold);
  void write_block_parameters(std::size_t b, const WindowInputs& inputs);
  WindowSolution solve_exact(WindowInputs inputs);
  WindowSolution solve_consensus(const WindowInputs& inputs);

  const DsppModel* model_ = nullptr;
  const PairIndex* pairs_ = nullptr;
  BlockWindowSettings settings_;
  std::size_t num_blocks_ = 1;
  std::size_t horizon_ = 0;  ///< 0 until the first consensus solve
  int last_consensus_iterations_ = 0;

  // Exact path (num_blocks == 1).
  qp::AdmmSolver exact_solver_;
  std::optional<WindowProgram> program_;
  std::optional<SeparableWindow> separable_;  ///< set when every pair has c_l > 0
  WindowPathStats path_stats_;

  // Consensus path.
  std::vector<Block> blocks_;
  std::vector<std::uint32_t> cover_count_;  ///< per v: blocks covering it
  linalg::Vector row_scale_;                ///< s_r = max(D_r, 1), size W*V
  linalg::Vector demand_norm_;              ///< D_r / s_r
  linalg::Vector dual_;                     ///< shared scaled dual u, size W*V
  bool consensus_warm_ = false;
};

}  // namespace gp::dspp
