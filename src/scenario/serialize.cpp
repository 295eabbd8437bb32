#include "scenario/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace gp::scenario {

// --------------------------------------------------------------- ScenarioSpec

std::string to_json(const ScenarioSpec& spec) {
  std::string out = "{\"name\":" + json_quoted(spec.name);
  out += ",\"topology\":" + json_quoted(spec.topology);
  out += ",\"num_dcs\":" + std::to_string(spec.num_dcs);
  out += ",\"num_cities\":" + std::to_string(spec.num_cities);
  out += ",\"topology_seed\":" + std::to_string(spec.topology_seed);
  out += ",\"candidates_per_an\":" + std::to_string(spec.candidates_per_an);
  out += ",\"rate_per_capita\":" + json_number(spec.rate_per_capita);
  out += ",\"profile\":{\"low\":" + json_number(spec.profile.low());
  out += ",\"high\":" + json_number(spec.profile.high());
  out += ",\"busy_start\":" + json_number(spec.profile.busy_start_hour());
  out += ",\"busy_end\":" + json_number(spec.profile.busy_end_hour());
  out += ",\"ramp\":" + json_number(spec.profile.ramp_hours()) + "}";
  out += ",\"flash_crowds\":" + json_array(spec.flash_crowds, [](const auto& crowd) {
    return "{\"an\":" + std::to_string(crowd.access_network) +
           ",\"start\":" + json_number(crowd.start_hour) +
           ",\"duration\":" + json_number(crowd.duration_hours) +
           ",\"multiplier\":" + json_number(crowd.multiplier) + "}";
  });
  out += ",\"mu\":" + json_number(spec.mu);
  out += ",\"max_latency_ms\":" + json_number(spec.max_latency_ms);
  out += ",\"reservation_ratio\":" + json_number(spec.reservation_ratio);
  out += ",\"reconfig_cost\":" + json_number(spec.reconfig_cost);
  out += ",\"capacity\":" + json_number(spec.capacity);
  out += ",\"vm\":" + std::to_string(static_cast<int>(spec.vm));
  out += ",\"demand_trace_csv\":" + json_quoted(spec.demand_trace_csv);
  out += ",\"price_trace_csv\":" + json_quoted(spec.price_trace_csv);
  out += std::string(",\"trace_wrap\":") + (spec.trace_wrap ? "true" : "false");
  out += ",\"sim\":{\"periods\":" + std::to_string(spec.sim.periods);
  out += ",\"period_hours\":" + json_number(spec.sim.period_hours);
  out += ",\"utc_start_hour\":" + json_number(spec.sim.utc_start_hour);
  out += std::string(",\"noisy_demand\":") + (spec.sim.noisy_demand ? "true" : "false");
  out += ",\"price_noise_std\":" + json_number(spec.sim.price_noise_std);
  out += std::string(",\"freeze_prices\":") + (spec.sim.freeze_prices ? "true" : "false");
  out += ",\"seed\":" + std::to_string(spec.sim.seed);
  out += std::string(",\"provision_initial\":") +
         (spec.sim.provision_initial ? "true" : "false");
  out += ",\"initial_overprovision\":" + json_number(spec.sim.initial_overprovision);
  out += "}}";
  return out;
}

ScenarioSpec scenario_from_json(std::string_view json) {
  const JsonValue doc(json);
  ScenarioSpec spec;
  spec.name = doc["name"].as_string();
  // The topology generator fields arrived with the continental-scale work;
  // accept earlier documents (which are all implicitly "us_cities", dense).
  if (const auto topology = doc.find("topology")) spec.topology = topology->as_string();
  spec.num_dcs = static_cast<std::size_t>(doc["num_dcs"].as_uint64());
  spec.num_cities = static_cast<std::size_t>(doc["num_cities"].as_uint64());
  if (const auto seed = doc.find("topology_seed")) spec.topology_seed = seed->as_uint64();
  if (const auto k = doc.find("candidates_per_an")) {
    spec.candidates_per_an = static_cast<std::size_t>(k->as_uint64());
  }
  spec.rate_per_capita = doc["rate_per_capita"].as_number();
  const JsonValue profile = doc["profile"];
  spec.profile = workload::DiurnalProfile(
      profile["low"].as_number(), profile["high"].as_number(),
      profile["busy_start"].as_number(), profile["busy_end"].as_number(),
      profile["ramp"].as_number());
  for (const JsonValue& crowd : doc["flash_crowds"].elements()) {
    spec.flash_crowds.push_back({static_cast<std::size_t>(crowd["an"].as_uint64()),
                                 crowd["start"].as_number(), crowd["duration"].as_number(),
                                 crowd["multiplier"].as_number()});
  }
  spec.mu = doc["mu"].as_number();
  spec.max_latency_ms = doc["max_latency_ms"].as_number();
  spec.reservation_ratio = doc["reservation_ratio"].as_number();
  spec.reconfig_cost = doc["reconfig_cost"].as_number();
  spec.capacity = doc["capacity"].as_number();
  spec.vm = static_cast<workload::VmType>(doc["vm"].as_int());
  spec.demand_trace_csv = doc["demand_trace_csv"].as_string();
  spec.price_trace_csv = doc["price_trace_csv"].as_string();
  spec.trace_wrap = doc["trace_wrap"].as_bool();
  const JsonValue sim = doc["sim"];
  spec.sim.periods = static_cast<std::size_t>(sim["periods"].as_uint64());
  spec.sim.period_hours = sim["period_hours"].as_number();
  spec.sim.utc_start_hour = sim["utc_start_hour"].as_number();
  spec.sim.noisy_demand = sim["noisy_demand"].as_bool();
  spec.sim.price_noise_std = sim["price_noise_std"].as_number();
  spec.sim.freeze_prices = sim["freeze_prices"].as_bool();
  spec.sim.seed = sim["seed"].as_uint64();
  spec.sim.provision_initial = sim["provision_initial"].as_bool();
  spec.sim.initial_overprovision = sim["initial_overprovision"].as_number();
  return spec;
}

// ----------------------------------------------------------------- PolicySpec

std::string to_json(const PredictorSpec& spec) {
  std::string out = "{\"kind\":" + json_quoted(spec.kind);
  out += ",\"order\":" + std::to_string(spec.order);
  out += ",\"window\":" + std::to_string(spec.window);
  out += ",\"season\":" + std::to_string(spec.season);
  out += std::string(",\"oracle_wrap\":") + (spec.oracle_wrap ? "true" : "false") + "}";
  return out;
}

PredictorSpec predictor_from_json(std::string_view json) {
  const JsonValue doc(json);
  PredictorSpec spec;
  spec.kind = doc["kind"].as_string();
  spec.order = static_cast<std::size_t>(doc["order"].as_uint64());
  spec.window = static_cast<std::size_t>(doc["window"].as_uint64());
  spec.season = static_cast<std::size_t>(doc["season"].as_uint64());
  spec.oracle_wrap = doc["oracle_wrap"].as_bool();
  return spec;
}

std::string to_json(const PolicySpec& policy) {
  std::string out = "{\"name\":" + json_quoted(policy.name);
  out += ",\"kind\":" + json_quoted(policy.kind);
  out += ",\"horizon\":" + std::to_string(policy.horizon);
  out += ",\"demand_predictor\":" + to_json(policy.demand_predictor);
  out += ",\"price_predictor\":" + to_json(policy.price_predictor);
  out += ",\"soft_demand_penalty\":" + json_number(policy.soft_demand_penalty);
  out += std::string(",\"reuse_solver_state\":") +
         (policy.reuse_solver_state ? "true" : "false");
  out += ",\"qp_blocks\":" + std::to_string(policy.qp_blocks);
  out += ",\"qp_block_lanes\":" + std::to_string(policy.qp_block_lanes);
  out += std::string(",\"integerized\":") + (policy.integerized ? "true" : "false");
  out += ",\"static_reference_hour\":" + json_number(policy.static_reference_hour);
  out += "}";
  return out;
}

PolicySpec policy_from_json(std::string_view json) {
  const JsonValue doc(json);
  PolicySpec policy;
  policy.name = doc["name"].as_string();
  policy.kind = doc["kind"].as_string();
  policy.horizon = static_cast<std::size_t>(doc["horizon"].as_uint64());
  policy.demand_predictor = predictor_from_json(doc["demand_predictor"].text());
  policy.price_predictor = predictor_from_json(doc["price_predictor"].text());
  policy.soft_demand_penalty = doc["soft_demand_penalty"].as_number();
  policy.reuse_solver_state = doc["reuse_solver_state"].as_bool();
  // Absent from documents older than the continental-scale work. A value
  // > 1 (per-DC block decomposition, since removed) parses, and make_policy
  // rejects it.
  if (const auto blocks = doc.find("qp_blocks")) {
    policy.qp_blocks = static_cast<std::size_t>(blocks->as_uint64());
  }
  if (const auto lanes = doc.find("qp_block_lanes")) {
    policy.qp_block_lanes = static_cast<std::size_t>(lanes->as_uint64());
  }
  policy.integerized = doc["integerized"].as_bool();
  policy.static_reference_hour = doc["static_reference_hour"].as_number();
  return policy;
}

// -------------------------------------------------------------------- hashing

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

std::string spec_hash(const ScenarioSpec& spec) { return fnv1a_hex(to_json(spec)); }

// -------------------------------------------------------------- ReplayBundle

std::string to_json(const ReplayBundle& bundle) {
  std::string out = "{\"type\":\"replay_bundle\",\"schema\":1";
  out += ",\"manifest\":" + bundle.manifest.to_json_object();
  out += ",\"seed\":" + std::to_string(bundle.seed);
  out += std::string(",\"audits_enabled\":") + (bundle.audits_enabled ? "true" : "false");
  out += ",\"unsolved_periods\":" + std::to_string(bundle.unsolved_periods);
  out += ",\"failed_periods\":" + json_array(bundle.failed_periods, [](int period) {
    return std::to_string(period);
  });
  out += ",\"audit_violations\":" + json_array(bundle.audit_violations, [](const auto& count) {
    return "{\"name\":" + json_quoted(count.first) +
           ",\"count\":" + std::to_string(count.second) + "}";
  });
  out += ",\"scenario\":" + to_json(bundle.scenario);
  out += ",\"policy\":" + to_json(bundle.policy);
  out += ",\"records\":" + json_array(bundle.records, [](const RecordedSample& sample) {
    return "{\"stream\":" + json_quoted(sample.stream) + ",\"step\":" +
           std::to_string(sample.step) + ",\"a\":" + json_number(sample.a) +
           ",\"b\":" + json_number(sample.b) + ",\"c\":" + json_number(sample.c) + "}";
  });
  return out + "}";
}

ReplayBundle bundle_from_json(std::string_view json) {
  const JsonValue doc(json);
  const auto type = doc.find("type");
  require(type && type->as_string() == "replay_bundle", "bundle_from_json: not a replay bundle");
  ReplayBundle bundle;
  bundle.manifest = obs::RunManifest::from_json(doc["manifest"].text());
  bundle.seed = doc["seed"].as_uint64();
  bundle.audits_enabled = doc["audits_enabled"].as_bool();
  bundle.unsolved_periods = static_cast<int>(doc["unsolved_periods"].as_int());
  for (const JsonValue& period : doc["failed_periods"].elements()) {
    bundle.failed_periods.push_back(static_cast<int>(period.as_int()));
  }
  for (const JsonValue& violation : doc["audit_violations"].elements()) {
    bundle.audit_violations.emplace_back(violation["name"].as_string(),
                                         violation["count"].as_int());
  }
  bundle.scenario = scenario_from_json(doc["scenario"].text());
  bundle.policy = policy_from_json(doc["policy"].text());
  for (const JsonValue& record : doc["records"].elements()) {
    bundle.records.push_back({record["stream"].as_string(), record["step"].as_int(),
                              record["a"].as_number(), record["b"].as_number(),
                              record["c"].as_number()});
  }
  return bundle;
}

void write_bundle(const ReplayBundle& bundle, const std::string& path) {
  std::ofstream out(path);
  if (out) out << to_json(bundle) << "\n";
}

ReplayBundle read_bundle(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "read_bundle: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return bundle_from_json(buffer.str());
}

}  // namespace gp::scenario
