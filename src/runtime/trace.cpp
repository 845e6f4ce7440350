#include "runtime/trace.hpp"

#include <string>

#include "obs/trace_writer.hpp"

namespace isp::runtime {

namespace {

/// Trace bytes reserved per line: four sub-slices of about 150 bytes.
constexpr std::size_t kTraceBytesPerLine = 640;

}  // namespace

std::string to_chrome_trace(const ExecutionReport& report) {
  obs::TraceWriter trace(256 + kTraceBytesPerLine * report.lines.size());

  if (report.compile_overhead.value() > 0.0) {
    trace.complete("host", "codegen (Cython)", 0.0,
                   report.compile_overhead.value());
  }

  std::string name;
  const auto sliced = [&](const LineRecord& line, std::string_view suffix) {
    name.assign(line.name);
    name.append(suffix);
    return std::string_view(name);
  };
  for (const auto& line : report.lines) {
    const char* track =
        line.placement == ir::Placement::Csd ? "cse" : "host";
    double cursor = line.start.seconds();
    trace.complete(track, sliced(line, " [access]"), cursor,
                   line.access.value());
    cursor += line.access.value();
    trace.complete("link", sliced(line, " [xfer]"), cursor,
                   line.transfer_in.value());
    cursor += line.transfer_in.value();
    trace.complete(track, sliced(line, " [marshal]"), cursor,
                   line.marshal.value());
    cursor += line.marshal.value();
    trace.complete(track, line.name, cursor, line.compute.value());
  }

  // Fault-handling episodes as instant events on their own track, so a
  // faulted run shows *where* the retries and escalations landed.
  for (const auto& f : report.fault_records) {
    name.assign("fault:");
    name.append(fault::to_string(f.site));
    if (f.exhausted) name.append(" (exhausted)");
    trace.instant("faults", name, f.time.seconds())
        .arg_u64("faults", f.faults)
        .arg_fixed6("penalty_us", f.penalty.value() * 1e6);
  }
  return trace.finish();
}

void write_chrome_trace(const ExecutionReport& report,
                        const std::string& path) {
  obs::write_trace_file(path, to_chrome_trace(report));
}

}  // namespace isp::runtime
