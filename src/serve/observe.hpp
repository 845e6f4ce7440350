// Fleet-wide observability exports: the serving trace and the
// metrics/snapshot JSON bundle.
//
// to_fleet_trace() extends the single-run Chrome-trace exporter
// (runtime::to_chrome_trace) to a whole serving run: one Perfetto row per
// Fleet lane with one span per served job — sub-sliced into exec /
// migration / recovery — one row per tenant queue showing each job's
// queue wait, placement marks at every dispatch, and the jobs' fault
// episodes as instant events.  It walks the finished ServeReport's
// virtual-time records once, streaming each event through an
// obs::TraceWriter, so the trace is byte-identical across runs and `--jobs`
// values (asserted in obs_test/serve_test).
#pragma once

#include <string>

#include "obs/snapshot.hpp"
#include "serve/server.hpp"

namespace isp::serve {

/// The whole-fleet trace as Chrome-trace JSON.  Rows: "csd<k>" / "host<k>"
/// lanes, "tenant<t> queue" wait rows, "admission", "storage" and a
/// "faults" row of instant events.
[[nodiscard]] std::string to_fleet_trace(const ServeReport& report);

/// Write to_fleet_trace() to `path`; throws isp::Error on IO failure.
void write_fleet_trace(const ServeReport& report, const std::string& path);

/// Derive the periodic virtual-time snapshot series from the outcome
/// records: rows at t = k·interval plus a final row at the makespan, each
/// counting offered / admitted / rejected / completed / in_flight / queued
/// as of t.  At every row `admitted == completed + in_flight + queued` and
/// `offered == admitted + rejected` (property-tested in serve_test).  One
/// sweep over the outcomes, O(jobs · log rows + rows · (columns + lanes));
/// serve_test checks it against the direct per-row scan.
[[nodiscard]] obs::SnapshotSeries build_snapshots(const ServeReport& report,
                                                  const ObsOptions& options);

/// The metrics registry and snapshot series as one JSON document (the
/// `--metrics-out` payload): {"metrics": ..., "snapshots": ...}.
[[nodiscard]] std::string metrics_json(const ServeReport& report);

}  // namespace isp::serve
