#include "obs/export.hpp"

#include "common/csv.hpp"

namespace gp::obs {

namespace {

/// Escapes the characters that can appear in metric/span names. Names are
/// library-chosen identifiers, so this stays minimal (quotes, backslash).
void write_escaped(std::ostream& out, const std::string& text) {
  for (char c : text) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

}  // namespace

void write_chrome_trace(std::ostream& out, std::span<const TraceEvent> events,
                        const RunManifest* manifest) {
  out << "[\n";
  out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
         "\"args\":{\"name\":\"geoplace\"}}";
  if (manifest != nullptr) {
    out << ",\n{\"ph\":\"M\",\"name\":\"run_manifest\",\"pid\":0,\"args\":"
        << manifest->to_json_object() << "}";
  }
  for (const TraceEvent& event : events) {
    out << ",\n";
    const auto dot = event.name.find('.');
    const std::string category =
        dot == std::string::npos ? std::string("misc") : event.name.substr(0, dot);
    out << "{\"ph\":\"X\",\"name\":\"";
    write_escaped(out, event.name);
    out << "\",\"cat\":\"" << category << "\",\"ts\":" << json_number(event.ts_us)
        << ",\"dur\":" << json_number(event.dur_us) << ",\"pid\":0,\"tid\":" << event.tid;
    if (event.has_arg) {
      out << ",\"args\":{\"arg\":" << json_number(event.arg) << "}";
    }
    out << "}";
  }
  out << "\n]\n";
}

}  // namespace gp::obs
