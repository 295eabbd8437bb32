// The library's one window-solve entry point (DESIGN.md §12).
//
// Every repeated window solve in the library goes through a WindowSolver:
// MpcController's receding-horizon steps and the game's best responses. A
// window whose pairs all have c_l > 0 is first solved network by network
// (dspp::SeparableWindow) and accepted under a KKT certificate with every
// capacity row slack and, under soft demand, every demand dual within the
// penalty. Every other window — a c = 0 pair, a binding capacity row, a
// soft window that leaves demand unserved or an uncertified network — goes
// to a persistent WindowProgram, parameter-updated in place and solved by
// one AdmmSolver configured by `solver` as given. After a failed separable
// attempt on a hard window that solver is warm-started from the separable
// point; a soft window (a best response) starts from the solver's own last
// iterate, as `solver` asks. Network solves run on the deterministic thread
// pool with results written to per-network slots, so solutions are
// bit-identical at any GEOPLACE_THREADS / max_lanes setting.
#pragma once

#include <optional>

#include "dspp/separable_window.hpp"
#include "dspp/window_program.hpp"
#include "qp/admm_solver.hpp"

namespace gp::dspp {

/// Configuration of the window solver.
struct WindowSolverSettings {
  /// Lane cap for the separable path's concurrent network solves (0 = all
  /// pool lanes). Any value yields bit-identical results; this only bounds
  /// parallelism.
  std::size_t max_lanes = 0;
  /// Keep the window program across solve() calls, updating its parameters
  /// in place, and start each network's separable solve from its previous
  /// active set shifted by one period (or keep the last relaxation when
  /// only the quota moved). ADMM warm starts and structure caching come
  /// from `solver`.
  bool reuse_solver_state = true;
  /// ADMM fallback settings, used unchanged.
  qp::AdmmSettings solver;
};

/// Which solver took each window, and why ADMM did.
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

/// Solves window programs, separable path first (see file comment).
/// Thread-compatible: one instance per control loop. The model and pair
/// index must outlive the solver.
class WindowSolver {
 public:
  WindowSolver(const DsppModel& model, const PairIndex& pairs, WindowSolverSettings settings);

  /// Solves the window program for these inputs. In reuse mode the program
  /// is parameter-updated in place, the separable path keeps its active
  /// sets and last relaxation, and the ADMM solver warm-starts from the
  /// previous call when its settings ask for it.
  WindowSolution solve(WindowInputs inputs);

  /// Counts since construction: separable solves and ADMM fallbacks by
  /// reason.
  const WindowPathStats& path_stats() const { return path_stats_; }

  /// Structure-cache counters of the ADMM fallback solver.
  const qp::AdmmCacheStats& cache_stats() const { return solver_.cache_stats(); }

 private:
  const DsppModel* model_ = nullptr;
  const PairIndex* pairs_ = nullptr;
  WindowSolverSettings settings_;
  qp::AdmmSolver solver_;
  std::optional<WindowProgram> program_;
  std::optional<SeparableWindow> separable_;  ///< set when every pair has c_l > 0
  WindowPathStats path_stats_;
};

}  // namespace gp::dspp
