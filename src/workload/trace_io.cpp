#include "workload/trace_io.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/csv.hpp"
#include "common/error.hpp"

namespace gp::workload {

namespace {

/// Splits a CSV line on commas (the traces this library writes never quote
/// cells; embedded commas in column names are rejected on write).
std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (char c : line) {
    if (c == ',') {
      cells.push_back(cell);
      cell.clear();
    } else if (c != '\r') {
      cell += c;
    }
  }
  cells.push_back(cell);
  return cells;
}

bool parse_double(const std::string& text, double& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  while (begin < end && *begin == ' ') ++begin;
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

TraceResult load_trace_csv(std::istream& in) {
  TraceResult result;
  std::string line;
  int line_number = 0;
  bool have_header = false;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    const auto cells = split_csv(line);
    if (!have_header) {
      for (const auto& name : cells) {
        if (name.empty()) {
          result.error = "line " + std::to_string(line_number) + ": empty column name";
          return result;
        }
      }
      result.trace.columns = cells;
      have_header = true;
      continue;
    }
    if (cells.size() != result.trace.columns.size()) {
      result.error = "line " + std::to_string(line_number) + ": expected " +
                     std::to_string(result.trace.columns.size()) + " cells, got " +
                     std::to_string(cells.size());
      return result;
    }
    linalg::Vector row(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!parse_double(cells[i], row[i])) {
        result.error = "line " + std::to_string(line_number) + ": bad number '" + cells[i] +
                       "'";
        return result;
      }
      // from_chars accepts "inf" and "nan"; no trace series can hold them.
      if (!std::isfinite(row[i])) {
        result.error = "line " + std::to_string(line_number) + ": non-finite value '" +
                       cells[i] + "'";
        return result;
      }
    }
    result.trace.values.push_back(std::move(row));
  }
  if (!have_header) {
    result.error = "no header row";
    return result;
  }
  result.ok = true;
  return result;
}

void save_trace_csv(const Trace& trace, std::ostream& out) {
  require(!trace.columns.empty(), "save_trace_csv: no columns");
  for (const auto& name : trace.columns) {
    require(name.find(',') == std::string::npos && name.find('\n') == std::string::npos,
            "save_trace_csv: column name contains a delimiter");
  }
  for (const auto& row : trace.values) {
    require(row.size() == trace.columns.size(), "save_trace_csv: ragged row");
  }
  CsvWriter csv(out);
  csv.header(trace.columns);
  for (const auto& row : trace.values) csv.row(row);
}

}  // namespace gp::workload
