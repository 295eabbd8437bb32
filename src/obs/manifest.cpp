#include "obs/manifest.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

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

void append_escaped(std::string& out, const std::string& text) {
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

void append_string_field(std::string& out, const char* key, const std::string& value) {
  out += "\"";
  out += key;
  out += "\":\"";
  append_escaped(out, value);
  out += "\"";
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
  std::string out = "{\"schema\":" + std::to_string(schema) + ",";
  append_string_field(out, "tool", tool);
  out += ",";
  append_string_field(out, "git_sha", git_sha);
  out += ",";
  append_string_field(out, "build", build_type);
  out += ",";
  append_string_field(out, "compiler", compiler);
  out += ",";
  append_string_field(out, "host", host);
  out += ",\"threads\":" + std::to_string(threads) + ",\"cpus\":" + std::to_string(cpus);
  out += ",";
  append_string_field(out, "simd", simd);
  out += ",\"seeds\":[";
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(seeds[i]);
  }
  out += "],";
  append_string_field(out, "spec_hash", spec_hash);
  out += ",\"trace_paths\":[";
  for (std::size_t i = 0; i < trace_paths.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    append_escaped(out, trace_paths[i]);
    out += "\"";
  }
  out += "],\"env\":{";
  for (std::size_t i = 0; i < env.size(); ++i) {
    if (i > 0) out += ",";
    append_string_field(out, env[i].first.c_str(), env[i].second);
  }
  out += "}}";
  return out;
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
