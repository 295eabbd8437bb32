// Run provenance: a RunManifest records which code, seeds and environment
// produced an artifact, so every JSONL file is self-describing and a failed
// run can be reproduced (tools/gp_replay).
//
// A manifest is embedded as the FIRST line of JSONL artifacts
// ({"type":"manifest",...}) and written as a `<artifact>.manifest.json`
// sidecar for formats that cannot carry a header line (CSV). Consumers that
// compare artifacts for bit-identity must strip the manifest first
// (strip_manifest_lines): the thread-count and host fields legitimately
// differ between otherwise identical runs.
//
// Layering: obs does not know about scenarios. The ScenarioSpec hash is a
// caller-supplied opaque string (src/scenario/serialize.hpp computes it);
// capture() fills only what the obs layer can see on its own — git SHA and
// build flags (baked in at configure time), thread count, CPU count, host,
// the dispatched SIMD tier (obs sits above linalg), and the GEOPLACE_*
// environment.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gp::obs {

struct RunManifest {
  int schema = 2;            ///< manifest line format version (2: + "simd")
  std::string tool;          ///< artifact producer ("sweep", "trace", ...)
  std::string git_sha;       ///< build provenance (configure-time git rev-parse)
  std::string build_type;    ///< CMAKE_BUILD_TYPE the binary was built with
  std::string compiler;      ///< compiler id-version string
  std::string host;          ///< hostname (excluded from identity checks)
  std::size_t threads = 0;   ///< ThreadPool::default_lanes() at capture time
  unsigned cpus = 0;         ///< hardware_concurrency at capture time
  /// Dispatched SIMD kernel tier ("scalar" / "avx2" / "avx512") at capture
  /// time — vectorization provenance for every artifact. A GEOPLACE_SIMD
  /// override shows up both here (it changes the active tier) and verbatim
  /// in `env` below.
  std::string simd;
  std::vector<std::uint64_t> seeds;       ///< run seed(s); caller-supplied
  std::string spec_hash;                  ///< ScenarioSpec hash; caller-supplied
  std::vector<std::string> trace_paths;   ///< demand/price traces referenced
  /// Sorted (name, value) pairs of every set GEOPLACE_* variable.
  std::vector<std::pair<std::string, std::string>> env;

  /// Fills the provenance fields the obs layer can observe by itself (see
  /// file comment); seeds / spec_hash / trace_paths stay for the caller.
  static RunManifest capture(std::string tool_name);

  /// The manifest as a JSON object, no trailing newline: {"schema":1,...}.
  std::string to_json_object() const;

  /// Inverse of to_json_object; also reads a to_jsonl_line (its "type" is
  /// ignored) and schema-1 manifests (no "simd"). Throws PreconditionError
  /// on malformed text or a missing field.
  static RunManifest from_json(std::string_view json);

  /// The JSONL header line, no trailing newline: {"type":"manifest",...}.
  std::string to_jsonl_line() const;

  /// Writes `<artifact_path>.manifest.json` next to a non-JSONL artifact.
  void write_sidecar(const std::string& artifact_path) const;
};

/// One GEOPLACE_* on/off/path switch, as env_switch reads it.
struct EnvSwitch {
  bool enabled = false;
  std::string path;  ///< dump destination; empty unless a path was given
};

/// Reads the switch grammar GEOPLACE_METRICS, _RECORD, _TIMELINE and _AUDIT
/// share: unset, "", "0", "false" or "off" is off; "1", "true" or "on" is on
/// with no path; any other value is on and names the dump path.
EnvSwitch env_switch(const char* name);

/// True when the line (sans leading whitespace) is a manifest header.
bool is_manifest_line(const std::string& line);

/// Drops manifest lines from a JSONL blob — the identity-check view of an
/// artifact (manifests carry thread/host fields that legitimately vary).
std::string strip_manifest_lines(const std::string& jsonl);

}  // namespace gp::obs
