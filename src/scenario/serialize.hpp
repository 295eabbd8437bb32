// Spec/policy JSON serialization, spec hashing, and replay bundles.
//
// to_json emits a canonical single-line JSON object in common/json's
// conventions (shortest round-trip doubles, null for a non-finite one,
// RFC 8259 strings), so parse(to_json(x)) rebuilds x bit-for-bit (a
// non-finite double comes back as NaN) — the property gp_replay's
// "reproduce the failure from the bundle alone" guarantee stands on.
// spec_hash() digests that canonical form (FNV-1a 64), giving the
// RunManifest a stable fingerprint: two runs with equal hashes ran
// structurally identical scenarios.
//
// A ReplayBundle is the failure-capture unit SweepRunner writes to its
// failures_dir: the capturing run's manifest, the fully-resolved scenario
// (including the derived per-run seed) and policy, what failed (unsolved
// periods, audit violations), and the lane's ConvergenceRecorder tail.
// The parsers read through common/json's scanner.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/recorder.hpp"
#include "scenario/policy.hpp"
#include "scenario/spec.hpp"

namespace gp::scenario {

std::string to_json(const ScenarioSpec& spec);
std::string to_json(const PredictorSpec& spec);
std::string to_json(const PolicySpec& policy);

/// Inverse of the matching to_json (bit-for-bit: serializing the result
/// reproduces the input text). Throws PreconditionError on malformed input.
ScenarioSpec scenario_from_json(std::string_view json);
PredictorSpec predictor_from_json(std::string_view json);
PolicySpec policy_from_json(std::string_view json);

/// FNV-1a 64-bit digest as 16 hex characters.
std::string fnv1a_hex(const std::string& text);

/// The ScenarioSpec fingerprint recorded in RunManifest::spec_hash —
/// fnv1a_hex of the canonical JSON.
std::string spec_hash(const ScenarioSpec& spec);

/// A recorder sample with an owned stream name (obs::ConvergenceSample
/// stores static-literal pointers, which a parsed bundle cannot produce).
struct RecordedSample {
  std::string stream;
  long long step = 0;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
};

/// Everything needed to re-run one failed sweep cell (see file comment).
struct ReplayBundle {
  obs::RunManifest manifest;     ///< provenance of the CAPTURING run
  ScenarioSpec scenario;         ///< resolved: scenario.sim.seed == seed
  PolicySpec policy;
  std::uint64_t seed = 0;        ///< the derived/explicit run seed
  bool audits_enabled = false;   ///< audits were on during capture
  int unsolved_periods = 0;
  std::vector<int> failed_periods;  ///< indices of !solved periods
  std::vector<std::pair<std::string, long long>> audit_violations;  ///< per audit name
  std::vector<RecordedSample> records;  ///< the lane's recorder tail
};

std::string to_json(const ReplayBundle& bundle);
ReplayBundle bundle_from_json(std::string_view json);

/// File round-trip; write throws nothing (best-effort like other dump
/// paths), read throws PreconditionError when the file is missing/bad.
void write_bundle(const ReplayBundle& bundle, const std::string& path);
ReplayBundle read_bundle(const std::string& path);

}  // namespace gp::scenario
