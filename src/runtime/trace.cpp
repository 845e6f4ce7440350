#include "runtime/trace.hpp"

#include <string>

#include "common/error.hpp"
#include "obs/timeline.hpp"

namespace isp::runtime {

obs::Timeline to_trace_timeline(const ExecutionReport& report) {
  obs::Timeline timeline;

  if (report.compile_overhead.value() > 0.0) {
    timeline.complete("host", "codegen (Cython)", 0.0,
                      report.compile_overhead.value());
  }

  for (const auto& line : report.lines) {
    const char* track =
        line.placement == ir::Placement::Csd ? "cse" : "host";
    double cursor = line.start.seconds();
    timeline.complete(track, line.name + " [access]", cursor,
                      line.access.value());
    cursor += line.access.value();
    timeline.complete("link", line.name + " [xfer]", cursor,
                      line.transfer_in.value());
    cursor += line.transfer_in.value();
    timeline.complete(track, line.name + " [marshal]", cursor,
                      line.marshal.value());
    cursor += line.marshal.value();
    timeline.complete(track, line.name, cursor, line.compute.value());
  }

  // Fault-handling episodes as instant events on their own track, so a
  // faulted run shows *where* the retries and escalations landed.
  for (const auto& f : report.fault_records) {
    timeline.instant(
        "faults",
        "fault:" + std::string(fault::to_string(f.site)) +
            (f.exhausted ? " (exhausted)" : ""),
        f.time.seconds(),
        {{"faults", std::to_string(f.faults)},
         {"penalty_us", obs::fixed6(f.penalty.value() * 1e6)}});
  }
  return timeline;
}

std::string to_chrome_trace(const ExecutionReport& report) {
  return to_trace_timeline(report).to_json();
}

void write_chrome_trace(const ExecutionReport& report,
                        const std::string& path) {
  to_trace_timeline(report).write(path);
}

}  // namespace isp::runtime
