#include "common/csv.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/json.hpp"

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
  return json_number(value);
}

std::string CsvWriter::format_or_empty(double value) {
  return std::isfinite(value) ? format(value) : std::string();
}

}  // namespace gp
