// Chrome-trace export: turn an ExecutionReport into a chrome://tracing /
// Perfetto-compatible JSON trace.
//
// Rows: the host CPU, the CSE, and the host link; each line becomes a
// duration event on the unit that ran it, with access/transfer/compute split
// into sub-slices.  Drop the output into chrome://tracing (or
// ui.perfetto.dev) to see exactly where a run spent its time and where the
// migration broke a line.  The report is walked once, each event streamed
// through the same obs::TraceWriter the fleet exporter in src/serve uses.
#pragma once

#include <string>

#include "runtime/report.hpp"

namespace isp::runtime {

/// Serialise a report as a Chrome trace (JSON array of events; rows: host,
/// cse, link, faults).
[[nodiscard]] std::string to_chrome_trace(const ExecutionReport& report);

/// Write the trace to a file; throws isp::Error on IO failure.
void write_chrome_trace(const ExecutionReport& report,
                        const std::string& path);

}  // namespace isp::runtime
