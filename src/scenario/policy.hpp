// Declarative controllers: a PolicySpec names a placement policy (the MPC
// controller, one of the baselines, or the threshold autoscaler) plus its
// predictors and knobs, and make_policy() builds it against a built
// scenario — absorbing the predictor factory and per-controller wiring the
// benches and examples used to repeat.
//
// The returned PolicyHandle OWNS the controller (and, for integerized
// policies, the model/pair-index copies the rounding decorator references),
// so the sim::PlacementPolicy closure it exposes stays valid for the
// handle's lifetime — the ownership subtlety that made the raw
// `policy_from(controller)` pattern easy to get wrong in sweep code.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "control/autoscaler.hpp"
#include "control/baselines.hpp"
#include "control/mpc_controller.hpp"
#include "control/predictor.hpp"
#include "scenario/spec.hpp"
#include "sim/engine.hpp"

namespace gp::scenario {

/// Which SeriesPredictor to build, with its tuning. Kinds: "last", "ar",
/// "seasonal", "seasonal_ar", "oracle" (the oracle needs a trace — either
/// passed to make_predictor explicitly or synthesized from the scenario's
/// mean series by make_policy).
struct PredictorSpec {
  std::string kind = "last";
  std::size_t order = 2;      ///< AR order (ar, seasonal_ar)
  std::size_t window = 48;    ///< AR fitting window (ar); seasonal_ar uses 72
  std::size_t season = 24;    ///< periods per season (seasonal, seasonal_ar)
  bool oracle_wrap = true;    ///< oracle: wrap past the trace end (cyclic days)
};

/// Builds the predictor a spec describes. `oracle_trace` is consumed only
/// by kind == "oracle". Unknown kinds throw.
std::unique_ptr<control::SeriesPredictor> make_predictor(
    const PredictorSpec& spec, std::vector<linalg::Vector> oracle_trace = {});

/// Shorthand: predictor by kind name with default tuning (the signature
/// bench/scenarios.hpp used to provide).
std::unique_ptr<control::SeriesPredictor> make_predictor(
    const std::string& kind, std::vector<linalg::Vector> oracle_trace = {});

/// Which placement policy to run. Kinds: "mpc" (Algorithm 1), "static"
/// (one-shot peak provisioning), "reactive" (myopic W=1, c=0), "autoscaler"
/// (threshold rules).
struct PolicySpec {
  std::string name;           ///< report label; label() falls back to kind
  std::string kind = "mpc";

  // MPC knobs (ignored by the baselines).
  std::size_t horizon = 5;
  PredictorSpec demand_predictor;
  PredictorSpec price_predictor;
  double soft_demand_penalty = 0.0;
  bool reuse_solver_state = true;
  /// control::MpcSettings::qp_blocks: make_policy rejects values > 1, since
  /// per-DC block decomposition was removed. Kept, and serialized, only until
  /// perfbench/ (the control-period benchmark) stops reading it.
  std::size_t qp_blocks = 1;
  /// Lane cap for the MPC window's concurrent per-network solves (0 = all
  /// pool lanes; control::MpcSettings::qp_block_lanes).
  std::size_t qp_block_lanes = 0;

  /// Wraps the policy in the integer round-up decorator (sim::integerized).
  bool integerized = false;

  /// Static baseline: the fixed target is the cheapest placement for the
  /// per-network PEAK of the mean demand (scanned hourly over one day) at
  /// the price observed this UTC hour.
  double static_reference_hour = 12.0;

  std::string label() const { return name.empty() ? kind : name; }
};

/// An instantiated policy plus everything it must outlive (see file
/// comment). Movable; the closure stays valid across moves.
class PolicyHandle {
 public:
  const sim::PlacementPolicy& policy() const { return policy_; }

  /// The MPC controller when kind == "mpc" (e.g. for set_capacity_quota or
  /// cache stats); nullptr for the baselines.
  control::MpcController* mpc() { return mpc_.get(); }

 private:
  friend PolicyHandle make_policy(const ScenarioBundle&, const ScenarioSpec&,
                                  const PolicySpec&);
  sim::PlacementPolicy policy_;
  std::unique_ptr<control::MpcController> mpc_;
  std::unique_ptr<control::StaticController> static_;
  std::unique_ptr<control::ReactiveController> reactive_;
  std::unique_ptr<control::ThresholdAutoscaler> autoscaler_;
  // Owned copies referenced by the integerized decorator's closure.
  std::unique_ptr<dspp::DsppModel> model_;
  std::unique_ptr<dspp::PairIndex> pairs_;
};

/// Mean demand series of the bundle at the spec's period grid (period
/// midpoints, like SimulationEngine::observe_demand without noise), for
/// `spec.sim.periods + extra` periods — the trace an oracle demand
/// predictor wants.
std::vector<linalg::Vector> mean_demand_trace(const ScenarioBundle& bundle,
                                              const ScenarioSpec& spec,
                                              std::size_t extra = 8);

/// Per-period price series at the spec's grid (same convention as
/// SimulationEngine::observe_price, honoring freeze_prices), for the oracle
/// price predictor.
std::vector<linalg::Vector> price_trace(const ScenarioBundle& bundle,
                                        const ScenarioSpec& spec, std::size_t extra = 8);

/// Builds the policy a spec describes against a built scenario. Oracle
/// predictors are fed the bundle's mean demand / price traces. Unknown
/// kinds throw.
PolicyHandle make_policy(const ScenarioBundle& bundle, const ScenarioSpec& spec,
                         const PolicySpec& policy);

}  // namespace gp::scenario
