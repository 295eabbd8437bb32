#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace gp {

namespace {

/// The bytes with a short escape, and the letter each is escaped as.
constexpr std::string_view kEscaped = "\"\\\b\f\n\r\t";
constexpr std::string_view kEscapeLetters = "\"\\bfnrt";
constexpr char kHexDigits[] = "0123456789abcdef";
constexpr std::string_view kSpace = " \t\n\r";

[[noreturn]] void malformed(const std::string& what, std::string_view text) {
  constexpr std::size_t kShown = 80;
  throw PreconditionError("json: " + what + " in '" + std::string(text.substr(0, kShown)) +
                          (text.size() > kShown ? "...'" : "'"));
}

std::size_t skip_space(std::string_view s, std::size_t i) {
  return std::min(s.find_first_not_of(kSpace, i), s.size());
}

std::string_view trim(std::string_view text) {
  const std::size_t first = skip_space(text, 0);
  if (first == text.size()) return {};
  return text.substr(first, text.find_last_not_of(kSpace) + 1 - first);
}

/// Index just past the string literal whose opening quote is s[i].
std::size_t string_end(std::string_view s, std::size_t i) {
  for (++i; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;
    } else if (s[i] == '"') {
      return i + 1;
    }
  }
  malformed("unterminated string", s);
}

/// Index just past the value (string, object, array or scalar) at s[i].
/// Brackets are only counted here; walk() checks a container's syntax.
std::size_t value_end(std::string_view s, std::size_t i) {
  if (i < s.size() && s[i] == '"') return string_end(s, i);
  if (i < s.size() && (s[i] == '{' || s[i] == '[')) {
    int depth = 0;
    for (; i < s.size(); ++i) {
      if (s[i] == '"') {
        i = string_end(s, i) - 1;
      } else if (s[i] == '{' || s[i] == '[') {
        ++depth;
      } else if ((s[i] == '}' || s[i] == ']') && --depth == 0) {
        return i + 1;
      }
    }
    malformed("unbalanced brackets", s);
  }
  const std::size_t end = std::min(s.find_first_of(" \t\n\r,}]", i), s.size());
  if (end == i) malformed("missing value", s);
  return end;
}

/// Calls visit(raw_key, value) for each member of an object (open == '{')
/// or element of an array ('['); raw_key is the quoted key, empty for an
/// element.
template <typename Visit>
void walk(std::string_view s, char open, Visit&& visit) {
  const char close = open == '{' ? '}' : ']';
  if (s.empty() || s.front() != open) {
    malformed(open == '{' ? "expected an object" : "expected an array", s);
  }
  std::size_t i = skip_space(s, 1);
  if (i + 1 == s.size() && s[i] == close) return;
  while (true) {
    std::string_view raw_key;
    if (open == '{') {
      if (i >= s.size() || s[i] != '"') malformed("expected a key", s);
      const std::size_t key_end = string_end(s, i);
      raw_key = s.substr(i, key_end - i);
      i = skip_space(s, key_end);
      if (i >= s.size() || s[i] != ':') malformed("expected ':'", s);
      i = skip_space(s, i + 1);
    }
    const std::size_t end = value_end(s, i);
    visit(raw_key, JsonValue(s.substr(i, end - i)));
    i = skip_space(s, end);
    if (i + 1 == s.size() && s[i] == close) return;
    if (i >= s.size() || s[i] != ',') malformed("expected ',' or a closing bracket", s);
    i = skip_space(s, i + 1);
  }
}

/// A JSON number token (`null` excluded) as T.
template <typename T>
T parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  // from_chars would also take "nan" and "inf", which are not JSON.
  const bool json_start = !text.empty() && (text[0] == '-' || (text[0] >= '0' && text[0] <= '9'));
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (!json_start || ec != std::errc() || ptr != end) malformed("expected a number", text);
  return value;
}

unsigned hex4(std::string_view raw, std::size_t at) {
  if (at + 4 > raw.size()) malformed("bad \\u escape", raw);
  unsigned value = 0;
  const auto [ptr, ec] = std::from_chars(raw.data() + at, raw.data() + at + 4, value, 16);
  if (ec != std::errc() || ptr != raw.data() + at + 4) malformed("bad \\u escape", raw);
  return value;
}

void append_utf8(std::string& out, unsigned cp) {
  static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out += static_cast<char>(kLead[extra] | (cp >> (6 * extra)));
  for (int shift = 6 * (extra - 1); shift >= 0; shift -= 6) {
    out += static_cast<char>(0x80 | ((cp >> shift) & 0x3F));
  }
}

/// Decodes a string literal, quotes included.
std::string decode_string(std::string_view raw) {
  if (raw.size() < 2 || raw.front() != '"' || string_end(raw, 0) != raw.size()) {
    malformed("expected a string", raw);
  }
  std::string out;
  out.reserve(raw.size() - 2);
  for (std::size_t i = 1; i + 1 < raw.size(); ++i) {
    if (raw[i] != '\\') {
      out += raw[i];
      continue;
    }
    const char letter = raw[++i];
    if (const std::size_t at = kEscapeLetters.find(letter); at != std::string_view::npos) {
      out += kEscaped[at];
    } else if (letter == '/') {
      out += '/';
    } else if (letter == 'u') {
      unsigned cp = hex4(raw, i + 1);
      i += 4;
      // A UTF-16 surrogate pair spells one code point above the BMP.
      if (cp >= 0xD800 && cp < 0xDC00 && raw.substr(i + 1, 2) == "\\u") {
        const unsigned low = hex4(raw, i + 3);
        if (low >= 0xDC00 && low < 0xE000) {
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          i += 6;
        }
      }
      append_utf8(out, cp);
    } else {
      malformed("bad escape", raw);
    }
  }
  return out;
}

}  // namespace

std::string json_quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (const std::size_t at = kEscaped.find(c); at != std::string_view::npos) {
      out += '\\';
      out += kEscapeLetters[at];
    } else if (byte < 0x20) {
      out += "\\u00";
      out += kHexDigits[byte >> 4];
      out += kHexDigits[byte & 0xF];
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

JsonValue::JsonValue(std::string_view text) : text_(trim(text)) {}

std::optional<JsonValue> JsonValue::find(std::string_view key) const {
  std::optional<JsonValue> found;
  walk(text_, '{', [&](std::string_view raw_key, JsonValue value) {
    if (!found && decode_string(raw_key) == key) found = value;
  });
  return found;
}

JsonValue JsonValue::operator[](std::string_view key) const {
  const std::optional<JsonValue> value = find(key);
  if (!value) malformed("missing key '" + std::string(key) + "'", text_);
  return *value;
}

std::string JsonValue::as_string() const { return decode_string(text_); }

double JsonValue::as_number() const {
  if (text_ == "null") return std::numeric_limits<double>::quiet_NaN();
  return parse_number<double>(text_);
}

long long JsonValue::as_int() const { return parse_number<long long>(text_); }

std::uint64_t JsonValue::as_uint64() const { return parse_number<std::uint64_t>(text_); }

bool JsonValue::as_bool() const {
  if (text_ != "true" && text_ != "false") malformed("expected true or false", text_);
  return text_ == "true";
}

std::vector<JsonValue> JsonValue::elements() const {
  std::vector<JsonValue> out;
  walk(text_, '[', [&](std::string_view, JsonValue value) { out.push_back(value); });
  return out;
}

std::vector<std::pair<std::string, JsonValue>> JsonValue::members() const {
  std::vector<std::pair<std::string, JsonValue>> out;
  walk(text_, '{', [&](std::string_view raw_key, JsonValue value) {
    out.emplace_back(decode_string(raw_key), value);
  });
  return out;
}

std::optional<JsonValue> json_line(std::string_view line) {
  line = trim(line);
  if (!line.empty() && line.back() == ',') line = trim(line.substr(0, line.size() - 1));
  if (line.empty() || line.front() != '{') return std::nullopt;
  return JsonValue(line);
}

}  // namespace gp
