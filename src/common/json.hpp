// The one JSON module: every artifact the library writes (run manifests,
// registry and flight-recorder dumps, replay bundles, traces, timelines,
// sweep rows) formats its strings and numbers here, and every reader of
// those artifacts scans them here.
//   - Numbers are the shortest decimal that reads back to the same double
//     (std::to_chars); a non-finite value is written `null` (JSON has no
//     NaN or inf) and read back as NaN.
//   - Strings are escaped per RFC 8259: `"`, `\` and every byte below 0x20
//     (\n \r \t \b \f, else \u00XX); all other bytes, UTF-8 included, pass
//     through unchanged.
//   - The reader is a depth-aware scanner for the single-line documents the
//     writers emit, not a general JSON library; it throws PreconditionError
//     on malformed text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gp {

/// `text` as a JSON string literal, quotes included (RFC 8259 escapes).
std::string json_quoted(std::string_view text);

/// JSON number token: shortest round-trip digits, or null when non-finite.
std::string json_number(double value);

/// `[format(item),...]`: a JSON array of the items, each formatted as JSON.
template <typename Range, typename Format>
std::string json_array(const Range& items, Format format) {
  std::string out = "[";
  for (const auto& item : items) {
    if (out.size() > 1) out += ',';
    out += format(item);
  }
  return out + "]";
}

/// A view of one JSON value's text: an object, array, string or scalar.
/// It points into the text it was made from; keep that text alive.
class JsonValue {
 public:
  /// Surrounding whitespace is ignored.
  explicit JsonValue(std::string_view text);

  /// The value of `key` among the object's own members (depth 1: a key of
  /// a nested object never matches), or nullopt.
  std::optional<JsonValue> find(std::string_view key) const;
  /// find(key), throwing PreconditionError when the key is absent.
  JsonValue operator[](std::string_view key) const;

  /// The decoded string: every escape json_quoted writes, and any
  /// \uXXXX as UTF-8.
  std::string as_string() const;
  /// A number; null reads as NaN.
  double as_number() const;
  long long as_int() const;
  std::uint64_t as_uint64() const;
  bool as_bool() const;

  /// An array's elements, in order.
  std::vector<JsonValue> elements() const;
  /// An object's members, in order, with decoded keys.
  std::vector<std::pair<std::string, JsonValue>> members() const;

  std::string_view text() const { return text_; }

 private:
  std::string_view text_;
};

/// The object on one line of a one-object-per-line file, without the
/// whitespace and the trailing ',' of a Chrome trace array's element lines;
/// nullopt for a line that holds no object (blank, "[" or "]").
std::optional<JsonValue> json_line(std::string_view line);

}  // namespace gp
