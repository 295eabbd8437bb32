#include "common/csv.hpp"

#include <charconv>
#include <cmath>

#include "common/error.hpp"

namespace gp {

void CsvWriter::header(const std::vector<std::string>& columns) {
  require(!wrote_header_, "CsvWriter: header already written");
  wrote_header_ = true;
  row(columns);
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  bool first = true;
  for (const auto& cell : cells) {
    if (!first) *out_ << ',';
    first = false;
    *out_ << escape(cell);
  }
  *out_ << '\n';
}

void CsvWriter::row(const std::vector<double>& cells) {
  std::vector<std::string> formatted;
  formatted.reserve(cells.size());
  for (double value : cells) formatted.push_back(format(value));
  row(formatted);
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

std::string CsvWriter::format(double value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  return CsvWriter::format(value);
}

}  // namespace gp
