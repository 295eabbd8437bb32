#include "obs/manifest.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "linalg/simd_dispatch.hpp"

#ifndef GEOPLACE_GIT_SHA
#define GEOPLACE_GIT_SHA "unknown"
#endif
#ifndef GEOPLACE_BUILD_TYPE
#define GEOPLACE_BUILD_TYPE "unknown"
#endif
#ifndef GEOPLACE_COMPILER
#define GEOPLACE_COMPILER "unknown"
#endif

extern char** environ;

namespace gp::obs {

namespace {

/// `"key":"value"`, JSON-escaped.
std::string string_member(std::string_view key, const std::string& value) {
  return json_quoted(key) + ":" + json_quoted(value);
}

}  // namespace

RunManifest RunManifest::capture(std::string tool_name) {
  RunManifest manifest;
  manifest.tool = std::move(tool_name);
  manifest.git_sha = GEOPLACE_GIT_SHA;
  manifest.build_type = GEOPLACE_BUILD_TYPE;
  manifest.compiler = GEOPLACE_COMPILER;
  char hostname[256] = {};
  if (::gethostname(hostname, sizeof(hostname) - 1) == 0) manifest.host = hostname;
  manifest.threads = ThreadPool::default_lanes();
  manifest.cpus = std::thread::hardware_concurrency();
  manifest.simd = linalg::simd::tier_name(linalg::simd::active_tier());
  for (char** entry = environ; entry != nullptr && *entry != nullptr; ++entry) {
    const char* var = *entry;
    if (std::strncmp(var, "GEOPLACE_", 9) != 0) continue;
    const char* eq = std::strchr(var, '=');
    if (eq == nullptr) continue;
    manifest.env.emplace_back(std::string(var, eq), std::string(eq + 1));
  }
  std::sort(manifest.env.begin(), manifest.env.end());
  return manifest;
}

EnvSwitch env_switch(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return {};
  const std::string value(raw);
  if (value.empty() || value == "0" || value == "false" || value == "off") return {};
  if (value == "1" || value == "true" || value == "on") return {true, {}};
  return {true, value};
}

std::string RunManifest::to_json_object() const {
  std::string out = "{\"schema\":" + std::to_string(schema);
  out += "," + string_member("tool", tool);
  out += "," + string_member("git_sha", git_sha);
  out += "," + string_member("build", build_type);
  out += "," + string_member("compiler", compiler);
  out += "," + string_member("host", host);
  out += ",\"threads\":" + std::to_string(threads) + ",\"cpus\":" + std::to_string(cpus);
  out += "," + string_member("simd", simd);
  out += ",\"seeds\":" + json_array(seeds, [](std::uint64_t s) { return std::to_string(s); });
  out += "," + string_member("spec_hash", spec_hash);
  out += ",\"trace_paths\":" + json_array(trace_paths, json_quoted);
  out += ",\"env\":{";
  for (std::size_t i = 0; i < env.size(); ++i) {
    if (i > 0) out += ',';
    out += string_member(env[i].first, env[i].second);
  }
  return out + "}}";
}

RunManifest RunManifest::from_json(std::string_view json) {
  const JsonValue doc(json);
  RunManifest manifest;
  manifest.schema = static_cast<int>(doc["schema"].as_int());
  manifest.tool = doc["tool"].as_string();
  manifest.git_sha = doc["git_sha"].as_string();
  manifest.build_type = doc["build"].as_string();
  manifest.compiler = doc["compiler"].as_string();
  manifest.host = doc["host"].as_string();
  manifest.threads = static_cast<std::size_t>(doc["threads"].as_uint64());
  manifest.cpus = static_cast<unsigned>(doc["cpus"].as_uint64());
  // "simd" arrived with schema 2; schema-1 manifests leave it empty.
  if (const auto simd = doc.find("simd")) manifest.simd = simd->as_string();
  for (const JsonValue& seed : doc["seeds"].elements()) {
    manifest.seeds.push_back(seed.as_uint64());
  }
  manifest.spec_hash = doc["spec_hash"].as_string();
  for (const JsonValue& path : doc["trace_paths"].elements()) {
    manifest.trace_paths.push_back(path.as_string());
  }
  for (const auto& [name, value] : doc["env"].members()) {
    manifest.env.emplace_back(name, value.as_string());
  }
  return manifest;
}

std::string RunManifest::to_jsonl_line() const {
  std::string body = to_json_object();
  // Splice the discriminator in right after the opening brace.
  return "{\"type\":\"manifest\"," + body.substr(1);
}

void RunManifest::write_sidecar(const std::string& artifact_path) const {
  std::ofstream out(artifact_path + ".manifest.json");
  if (out) out << to_json_object() << "\n";
}

bool is_manifest_line(const std::string& line) {
  static constexpr std::string_view kHeader = "{\"type\":\"manifest\",";
  const std::size_t start = line.find_first_not_of(" \t");
  if (start == std::string::npos) return false;
  return line.compare(start, kHeader.size(), kHeader) == 0;
}

std::string strip_manifest_lines(const std::string& jsonl) {
  std::string out;
  out.reserve(jsonl.size());
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (is_manifest_line(line)) continue;
    out += line;
    out += "\n";
  }
  return out;
}

}  // namespace gp::obs
