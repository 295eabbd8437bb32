// Trace/metric exporters.
//
// Chrome trace-event format (load in chrome://tracing or Perfetto): a JSON
// array of complete events ("ph":"X"), one per span, timestamps/durations
// in microseconds, one process (pid 0) with the library's small thread ids
// as tids.
//
// JSONL event log (the input of tools/trace_report): one JSON object per
// line —
//   {"type":"span","name":...,"ts_us":...,"dur_us":...,"tid":...,
//    "depth":...[,"arg":...]}
// followed, when a Registry is supplied, by its metric lines
// ({"type":"counter"|"gauge"|"histogram",...} — see Registry::write_jsonl).
// Both exporters accept an optional RunManifest: the JSONL log starts with
// its {"type":"manifest",...} header line, the Chrome array carries it as a
// "run_manifest" metadata event, so either artifact is self-describing.
#pragma once

#include <ostream>
#include <span>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gp::obs {

/// Writes the Chrome trace-event JSON array (see file comment).
void write_chrome_trace(std::ostream& out, std::span<const TraceEvent> events,
                        const RunManifest* manifest = nullptr);

/// Writes the JSONL event log; appends `registry` metric lines when given.
void write_jsonl_trace(std::ostream& out, std::span<const TraceEvent> events,
                       const Registry* registry = nullptr,
                       const RunManifest* manifest = nullptr);

}  // namespace gp::obs
