#include "scenario/serialize.hpp"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace gp::scenario {

namespace {

// ------------------------------------------------------------------ emitting

/// Shortest exact decimal form (std::to_chars): strtod of the output is the
/// input bit pattern, which is what makes to_json/from_json a round trip.
std::string format_double(double value) {
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  ensure(ec == std::errc(), "format_double: to_chars failed");
  return std::string(buffer, ptr);
}

void append_escaped(std::string& out, const std::string& text) {
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

void append_quoted(std::string& out, const std::string& text) {
  out.push_back('"');
  append_escaped(out, text);
  out.push_back('"');
}

// ------------------------------------------------------------------- parsing
//
// A minimal scanner for the canonical form the emitters above write. Keys
// are located at DEPTH 1 of the given object text only, so nested objects
// (a predictor's "kind" inside a policy) can reuse top-level key names.

std::size_t skip_string(const std::string& text, std::size_t i) {
  // i points at the opening quote; returns the index AFTER the closing one.
  ++i;
  while (i < text.size()) {
    if (text[i] == '\\') {
      i += 2;
    } else if (text[i] == '"') {
      return i + 1;
    } else {
      ++i;
    }
  }
  throw PreconditionError("serialize: unterminated string");
}

/// Position of the first character of `key`'s value at depth 1, or npos.
std::size_t value_position(const std::string& text, const std::string& key) {
  int depth = 0;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == '"') {
      const std::size_t end = skip_string(text, i);
      if (depth == 1) {
        const std::string token = text.substr(i + 1, end - i - 2);
        std::size_t after = end;
        while (after < text.size() && (text[after] == ' ' || text[after] == ':')) {
          if (text[after] == ':') {
            if (token == key) {
              ++after;
              while (after < text.size() && text[after] == ' ') ++after;
              return after;
            }
            break;
          }
          ++after;
        }
      }
      i = end;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ++i;
  }
  return std::string::npos;
}

/// The raw value text of `key` (string with quotes, object/array with
/// braces, or a bare scalar token).
std::string raw_value(const std::string& text, const std::string& key) {
  const std::size_t start = value_position(text, key);
  ensure(start != std::string::npos, "serialize: missing key '" + key + "'");
  const char c = text[start];
  if (c == '"') return text.substr(start, skip_string(text, start) - start);
  if (c == '{' || c == '[') {
    const char open = c;
    const char close = c == '{' ? '}' : ']';
    int depth = 0;
    for (std::size_t i = start; i < text.size(); ++i) {
      if (text[i] == '"') {
        i = skip_string(text, i) - 1;
        continue;
      }
      if (text[i] == open) ++depth;
      if (text[i] == close && --depth == 0) return text.substr(start, i - start + 1);
    }
    throw PreconditionError("serialize: unbalanced value for '" + key + "'");
  }
  std::size_t end = start;
  while (end < text.size() && text[end] != ',' && text[end] != '}' && text[end] != ']') ++end;
  return text.substr(start, end - start);
}

/// Strips the quotes off a raw string value and undoes append_escaped.
std::string unquote(const std::string& raw) {
  ensure(raw.size() >= 2 && raw.front() == '"', "serialize: expected a string");
  std::string out;
  for (std::size_t i = 1; i + 1 < raw.size(); ++i) {
    if (raw[i] == '\\' && i + 2 < raw.size()) ++i;
    out.push_back(raw[i]);
  }
  return out;
}

std::string get_string(const std::string& text, const std::string& key) {
  const std::string raw = raw_value(text, key);
  ensure(raw.size() >= 2 && raw.front() == '"', "serialize: '" + key + "' is not a string");
  return unquote(raw);
}

double get_double(const std::string& text, const std::string& key) {
  const std::string raw = raw_value(text, key);
  ensure(!raw.empty(), "serialize: empty number for '" + key + "'");
  return std::strtod(raw.c_str(), nullptr);
}

long long get_int(const std::string& text, const std::string& key) {
  return std::strtoll(raw_value(text, key).c_str(), nullptr, 10);
}

std::uint64_t get_uint64(const std::string& text, const std::string& key) {
  return std::strtoull(raw_value(text, key).c_str(), nullptr, 10);
}

bool get_bool(const std::string& text, const std::string& key) {
  return raw_value(text, key) == "true";
}

/// Splits an array's raw text ("[...]") into its top-level element texts.
std::vector<std::string> array_elements(const std::string& raw) {
  ensure(raw.size() >= 2 && raw.front() == '[', "serialize: expected an array");
  std::vector<std::string> elements;
  std::size_t i = 1;
  std::size_t start = 1;
  int depth = 0;
  for (; i + 1 < raw.size() || (i < raw.size() && raw[i] != ']'); ++i) {
    const char c = raw[i];
    if (c == '"') {
      i = skip_string(raw, i) - 1;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (c == ',' && depth == 0) {
      elements.push_back(raw.substr(start, i - start));
      start = i + 1;
    }
  }
  if (i > start) elements.push_back(raw.substr(start, i - start));
  return elements;
}

/// Splits an object's raw text ("{...}") whose members are all string-valued
/// into unescaped (key, value) pairs — the shape of the manifest's env map.
std::vector<std::pair<std::string, std::string>> object_string_members(
    const std::string& raw) {
  ensure(raw.size() >= 2 && raw.front() == '{' && raw.back() == '}',
         "serialize: expected an object");
  std::vector<std::pair<std::string, std::string>> members;
  std::size_t i = 1;
  while (i + 1 < raw.size()) {
    if (raw[i] != '"') {
      ++i;
      continue;
    }
    const std::size_t key_end = skip_string(raw, i);
    std::string key = unquote(raw.substr(i, key_end - i));
    std::size_t v = key_end;
    while (v < raw.size() && (raw[v] == ' ' || raw[v] == ':')) ++v;
    ensure(v + 1 < raw.size() && raw[v] == '"',
           "serialize: object member '" + key + "' is not a string");
    const std::size_t val_end = skip_string(raw, v);
    members.emplace_back(std::move(key), unquote(raw.substr(v, val_end - v)));
    i = val_end;
  }
  return members;
}

}  // namespace

// --------------------------------------------------------------- ScenarioSpec

std::string to_json(const ScenarioSpec& spec) {
  std::string out = "{\"name\":";
  append_quoted(out, spec.name);
  out += ",\"topology\":";
  append_quoted(out, spec.topology);
  out += ",\"num_dcs\":" + std::to_string(spec.num_dcs);
  out += ",\"num_cities\":" + std::to_string(spec.num_cities);
  out += ",\"topology_seed\":" + std::to_string(spec.topology_seed);
  out += ",\"candidates_per_an\":" + std::to_string(spec.candidates_per_an);
  out += ",\"rate_per_capita\":" + format_double(spec.rate_per_capita);
  out += ",\"profile\":{\"low\":" + format_double(spec.profile.low());
  out += ",\"high\":" + format_double(spec.profile.high());
  out += ",\"busy_start\":" + format_double(spec.profile.busy_start_hour());
  out += ",\"busy_end\":" + format_double(spec.profile.busy_end_hour());
  out += ",\"ramp\":" + format_double(spec.profile.ramp_hours()) + "}";
  out += ",\"flash_crowds\":[";
  for (std::size_t i = 0; i < spec.flash_crowds.size(); ++i) {
    const auto& crowd = spec.flash_crowds[i];
    if (i > 0) out += ",";
    out += "{\"an\":" + std::to_string(crowd.access_network);
    out += ",\"start\":" + format_double(crowd.start_hour);
    out += ",\"duration\":" + format_double(crowd.duration_hours);
    out += ",\"multiplier\":" + format_double(crowd.multiplier) + "}";
  }
  out += "]";
  out += ",\"mu\":" + format_double(spec.mu);
  out += ",\"max_latency_ms\":" + format_double(spec.max_latency_ms);
  out += ",\"reservation_ratio\":" + format_double(spec.reservation_ratio);
  out += ",\"reconfig_cost\":" + format_double(spec.reconfig_cost);
  out += ",\"capacity\":" + format_double(spec.capacity);
  out += ",\"vm\":" + std::to_string(static_cast<int>(spec.vm));
  out += ",\"demand_trace_csv\":";
  append_quoted(out, spec.demand_trace_csv);
  out += ",\"price_trace_csv\":";
  append_quoted(out, spec.price_trace_csv);
  out += std::string(",\"trace_wrap\":") + (spec.trace_wrap ? "true" : "false");
  out += ",\"sim\":{\"periods\":" + std::to_string(spec.sim.periods);
  out += ",\"period_hours\":" + format_double(spec.sim.period_hours);
  out += ",\"utc_start_hour\":" + format_double(spec.sim.utc_start_hour);
  out += std::string(",\"noisy_demand\":") + (spec.sim.noisy_demand ? "true" : "false");
  out += ",\"price_noise_std\":" + format_double(spec.sim.price_noise_std);
  out += std::string(",\"freeze_prices\":") + (spec.sim.freeze_prices ? "true" : "false");
  out += ",\"seed\":" + std::to_string(spec.sim.seed);
  out += std::string(",\"provision_initial\":") +
         (spec.sim.provision_initial ? "true" : "false");
  out += ",\"initial_overprovision\":" + format_double(spec.sim.initial_overprovision);
  out += "}}";
  return out;
}

ScenarioSpec scenario_from_json(const std::string& json) {
  ScenarioSpec spec;
  spec.name = get_string(json, "name");
  // The topology generator fields arrived with the continental-scale work;
  // accept earlier documents (which are all implicitly "us_cities", dense).
  if (value_position(json, "topology") != std::string::npos) {
    spec.topology = get_string(json, "topology");
  }
  spec.num_dcs = static_cast<std::size_t>(get_int(json, "num_dcs"));
  spec.num_cities = static_cast<std::size_t>(get_int(json, "num_cities"));
  if (value_position(json, "topology_seed") != std::string::npos) {
    spec.topology_seed = get_uint64(json, "topology_seed");
  }
  if (value_position(json, "candidates_per_an") != std::string::npos) {
    spec.candidates_per_an = static_cast<std::size_t>(get_int(json, "candidates_per_an"));
  }
  spec.rate_per_capita = get_double(json, "rate_per_capita");
  const std::string profile = raw_value(json, "profile");
  spec.profile = workload::DiurnalProfile(
      get_double(profile, "low"), get_double(profile, "high"),
      get_double(profile, "busy_start"), get_double(profile, "busy_end"),
      get_double(profile, "ramp"));
  for (const std::string& crowd_text : array_elements(raw_value(json, "flash_crowds"))) {
    workload::FlashCrowd crowd;
    crowd.access_network = static_cast<std::size_t>(get_int(crowd_text, "an"));
    crowd.start_hour = get_double(crowd_text, "start");
    crowd.duration_hours = get_double(crowd_text, "duration");
    crowd.multiplier = get_double(crowd_text, "multiplier");
    spec.flash_crowds.push_back(crowd);
  }
  spec.mu = get_double(json, "mu");
  spec.max_latency_ms = get_double(json, "max_latency_ms");
  spec.reservation_ratio = get_double(json, "reservation_ratio");
  spec.reconfig_cost = get_double(json, "reconfig_cost");
  spec.capacity = get_double(json, "capacity");
  spec.vm = static_cast<workload::VmType>(get_int(json, "vm"));
  spec.demand_trace_csv = get_string(json, "demand_trace_csv");
  spec.price_trace_csv = get_string(json, "price_trace_csv");
  spec.trace_wrap = get_bool(json, "trace_wrap");
  const std::string sim = raw_value(json, "sim");
  spec.sim.periods = static_cast<std::size_t>(get_int(sim, "periods"));
  spec.sim.period_hours = get_double(sim, "period_hours");
  spec.sim.utc_start_hour = get_double(sim, "utc_start_hour");
  spec.sim.noisy_demand = get_bool(sim, "noisy_demand");
  spec.sim.price_noise_std = get_double(sim, "price_noise_std");
  spec.sim.freeze_prices = get_bool(sim, "freeze_prices");
  spec.sim.seed = get_uint64(sim, "seed");
  spec.sim.provision_initial = get_bool(sim, "provision_initial");
  spec.sim.initial_overprovision = get_double(sim, "initial_overprovision");
  return spec;
}

// ----------------------------------------------------------------- PolicySpec

std::string to_json(const PredictorSpec& spec) {
  std::string out = "{\"kind\":";
  append_quoted(out, spec.kind);
  out += ",\"order\":" + std::to_string(spec.order);
  out += ",\"window\":" + std::to_string(spec.window);
  out += ",\"season\":" + std::to_string(spec.season);
  out += std::string(",\"oracle_wrap\":") + (spec.oracle_wrap ? "true" : "false") + "}";
  return out;
}

PredictorSpec predictor_from_json(const std::string& json) {
  PredictorSpec spec;
  spec.kind = get_string(json, "kind");
  spec.order = static_cast<std::size_t>(get_int(json, "order"));
  spec.window = static_cast<std::size_t>(get_int(json, "window"));
  spec.season = static_cast<std::size_t>(get_int(json, "season"));
  spec.oracle_wrap = get_bool(json, "oracle_wrap");
  return spec;
}

std::string to_json(const PolicySpec& policy) {
  std::string out = "{\"name\":";
  append_quoted(out, policy.name);
  out += ",\"kind\":";
  append_quoted(out, policy.kind);
  out += ",\"horizon\":" + std::to_string(policy.horizon);
  out += ",\"demand_predictor\":" + to_json(policy.demand_predictor);
  out += ",\"price_predictor\":" + to_json(policy.price_predictor);
  out += ",\"soft_demand_penalty\":" + format_double(policy.soft_demand_penalty);
  out += std::string(",\"reuse_solver_state\":") +
         (policy.reuse_solver_state ? "true" : "false");
  out += ",\"qp_blocks\":" + std::to_string(policy.qp_blocks);
  out += ",\"qp_block_lanes\":" + std::to_string(policy.qp_block_lanes);
  out += std::string(",\"integerized\":") + (policy.integerized ? "true" : "false");
  out += ",\"static_reference_hour\":" + format_double(policy.static_reference_hour);
  out += "}";
  return out;
}

PolicySpec policy_from_json(const std::string& json) {
  PolicySpec policy;
  policy.name = get_string(json, "name");
  policy.kind = get_string(json, "kind");
  policy.horizon = static_cast<std::size_t>(get_int(json, "horizon"));
  policy.demand_predictor = predictor_from_json(raw_value(json, "demand_predictor"));
  policy.price_predictor = predictor_from_json(raw_value(json, "price_predictor"));
  policy.soft_demand_penalty = get_double(json, "soft_demand_penalty");
  policy.reuse_solver_state = get_bool(json, "reuse_solver_state");
  // Absent from documents older than the continental-scale work. A value
  // > 1 (per-DC block decomposition, since removed) parses, and make_policy
  // rejects it.
  if (value_position(json, "qp_blocks") != std::string::npos) {
    policy.qp_blocks = static_cast<std::size_t>(get_int(json, "qp_blocks"));
  }
  if (value_position(json, "qp_block_lanes") != std::string::npos) {
    policy.qp_block_lanes = static_cast<std::size_t>(get_int(json, "qp_block_lanes"));
  }
  policy.integerized = get_bool(json, "integerized");
  policy.static_reference_hour = get_double(json, "static_reference_hour");
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
  out += ",\"failed_periods\":[";
  for (std::size_t i = 0; i < bundle.failed_periods.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(bundle.failed_periods[i]);
  }
  out += "],\"audit_violations\":[";
  for (std::size_t i = 0; i < bundle.audit_violations.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"name\":";
    append_quoted(out, bundle.audit_violations[i].first);
    out += ",\"count\":" + std::to_string(bundle.audit_violations[i].second) + "}";
  }
  out += "],\"scenario\":" + to_json(bundle.scenario);
  out += ",\"policy\":" + to_json(bundle.policy);
  out += ",\"records\":[";
  for (std::size_t i = 0; i < bundle.records.size(); ++i) {
    const RecordedSample& sample = bundle.records[i];
    if (i > 0) out += ",";
    out += "{\"stream\":";
    append_quoted(out, sample.stream);
    out += ",\"step\":" + std::to_string(sample.step);
    out += ",\"a\":" + format_double(sample.a);
    out += ",\"b\":" + format_double(sample.b);
    out += ",\"c\":" + format_double(sample.c) + "}";
  }
  out += "]}";
  return out;
}

ReplayBundle bundle_from_json(const std::string& json) {
  ensure(value_position(json, "type") != std::string::npos &&
             get_string(json, "type") == "replay_bundle",
         "bundle_from_json: not a replay bundle");
  ReplayBundle bundle;
  const std::string manifest = raw_value(json, "manifest");
  bundle.manifest.schema = static_cast<int>(get_int(manifest, "schema"));
  bundle.manifest.tool = get_string(manifest, "tool");
  bundle.manifest.git_sha = get_string(manifest, "git_sha");
  bundle.manifest.build_type = get_string(manifest, "build");
  bundle.manifest.compiler = get_string(manifest, "compiler");
  bundle.manifest.host = get_string(manifest, "host");
  bundle.manifest.threads = static_cast<std::size_t>(get_int(manifest, "threads"));
  bundle.manifest.cpus = static_cast<unsigned>(get_int(manifest, "cpus"));
  // "simd" arrived with manifest schema 2; accept schema-1 bundles.
  if (value_position(manifest, "simd") != std::string::npos) {
    bundle.manifest.simd = get_string(manifest, "simd");
  }
  bundle.manifest.env = object_string_members(raw_value(manifest, "env"));
  bundle.manifest.spec_hash = get_string(manifest, "spec_hash");
  for (const std::string& seed_text : array_elements(raw_value(manifest, "seeds"))) {
    bundle.manifest.seeds.push_back(std::strtoull(seed_text.c_str(), nullptr, 10));
  }
  for (const std::string& path_text : array_elements(raw_value(manifest, "trace_paths"))) {
    ensure(path_text.size() >= 2 && path_text.front() == '"',
           "bundle_from_json: bad trace path");
    bundle.manifest.trace_paths.push_back(path_text.substr(1, path_text.size() - 2));
  }
  bundle.seed = get_uint64(json, "seed");
  bundle.audits_enabled = get_bool(json, "audits_enabled");
  bundle.unsolved_periods = static_cast<int>(get_int(json, "unsolved_periods"));
  for (const std::string& period_text : array_elements(raw_value(json, "failed_periods"))) {
    bundle.failed_periods.push_back(static_cast<int>(std::strtoll(period_text.c_str(),
                                                                  nullptr, 10)));
  }
  for (const std::string& violation : array_elements(raw_value(json, "audit_violations"))) {
    bundle.audit_violations.emplace_back(get_string(violation, "name"),
                                         get_int(violation, "count"));
  }
  bundle.scenario = scenario_from_json(raw_value(json, "scenario"));
  bundle.policy = policy_from_json(raw_value(json, "policy"));
  for (const std::string& record : array_elements(raw_value(json, "records"))) {
    RecordedSample sample;
    sample.stream = get_string(record, "stream");
    sample.step = get_int(record, "step");
    sample.a = get_double(record, "a");
    sample.b = get_double(record, "b");
    sample.c = get_double(record, "c");
    bundle.records.push_back(std::move(sample));
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
