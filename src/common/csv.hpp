// Minimal CSV emission used by benches and the simulation engine to dump
// figure series in a plot-ready form.
#pragma once

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace gp {

/// Streams rows of comma-separated values with proper quoting.
///
/// The writer does not own the output stream; callers keep it alive for the
/// writer's lifetime. Numeric cells are formatted with enough precision to
/// round-trip doubles.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Writes the header row. Call at most once, before any data row.
  void header(const std::vector<std::string>& columns);

  /// Writes one row of string cells (quoted as needed).
  void row(const std::vector<std::string>& cells);

  /// Writes one row of numeric cells.
  void row(const std::vector<double>& cells);

  /// Escapes a single cell per RFC 4180 (quotes fields containing , " or \n).
  static std::string escape(const std::string& cell);

  /// Formats a double compactly but losslessly ("nan", "inf" and "-inf"
  /// for non-finite values).
  static std::string format(double value);

  /// format(), but an empty cell for a non-finite value: unsolved periods
  /// carry NaN, and "nan" tokens break most CSV consumers.
  static std::string format_or_empty(double value);

 private:
  std::ostream* out_;
  bool wrote_header_ = false;
};

}  // namespace gp
