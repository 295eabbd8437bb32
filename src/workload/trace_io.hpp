// CSV import/export for demand and price traces.
//
// The synthetic generators in this module reproduce the paper's setup, but
// a production deployment feeds the controller from measured traces. The
// format is one row per control period, one column per series (access
// network or data center), with a header row naming the columns — exactly
// what SimulationSummary::write_csv and the figure benches emit, so traces
// round-trip through spreadsheets and plotting scripts.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace gp::workload {

/// A named multivariate time series: values[t][column].
struct Trace {
  std::vector<std::string> columns;
  std::vector<linalg::Vector> values;

  std::size_t periods() const { return values.size(); }
  std::size_t width() const { return columns.size(); }
};

/// Parse outcome; malformed input is reported, not thrown (trace files are
/// external inputs).
struct TraceResult {
  bool ok = false;
  Trace trace;
  std::string error;  ///< first problem, with a line number
};

/// Reads a CSV trace: header row of column names, then rows of the same
/// width holding finite numbers ("inf" and "nan" cells are errors). Blank
/// lines are skipped; a '#' prefix marks comment lines.
TraceResult load_trace_csv(std::istream& in);

/// Writes the trace in the same format (lossless double round-trip).
void save_trace_csv(const Trace& trace, std::ostream& out);

}  // namespace gp::workload
