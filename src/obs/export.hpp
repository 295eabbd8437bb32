// Trace exporter.
//
// Chrome trace-event format (load in https://ui.perfetto.dev or
// chrome://tracing; tools/gp_report prints its span table and draws its
// flamegraph): a JSON array with one object per line — a "process_name"
// metadata event, the optional RunManifest as a "run_manifest" metadata
// event (so the artifact is self-describing), then one complete event
// ("ph":"X") per span with timestamps/durations in microseconds, one
// process (pid 0) and the library's small thread ids as tids. Numbers are
// written shortest round-trip (gp::json_number), so ts and dur read back
// bit-exact however long the run. Registry metrics are not part of the
// trace; GEOPLACE_METRICS=<path> dumps them.
#pragma once

#include <ostream>
#include <span>

#include "obs/manifest.hpp"
#include "obs/trace.hpp"

namespace gp::obs {

/// Writes the Chrome trace-event JSON array (see file comment).
void write_chrome_trace(std::ostream& out, std::span<const TraceEvent> events,
                        const RunManifest* manifest = nullptr);

}  // namespace gp::obs
