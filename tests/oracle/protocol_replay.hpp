// Test oracle: validate the analytic engine's CSD control-plane charges
// against the event-driven NVMe protocol.
//
// The execution engine charges each CSD group invocation analytically (call
// overhead, status-update costs).  This replayer takes a finished report and
// drives the same sequence through the oracle's protocol machinery — SQ
// entry, doorbell, controller fetch, firmware chunk loop, status posts, CQ
// completion — on an event simulator of its own, and reports both the
// protocol-level statistics and the total control-plane time.
// `ProtocolReplay.MatchesAnalyticControlPlane` (tests/device_test.cpp)
// checks that the replayed control-plane time lies between the engine's
// call charges and the report's whole per-line overhead.
#pragma once

#include "runtime/report.hpp"
#include "system/model.hpp"

namespace isp::runtime {

struct ProtocolReplayResult {
  std::uint32_t calls_submitted = 0;
  std::uint64_t status_updates = 0;
  std::uint64_t completions = 0;
  Seconds protocol_time;   // doorbell → final completion, compute excluded
  Seconds execute_time;    // CSE execution time replayed
};

/// Replay the CSD groups of `report` through a queue pair, a call queue, a
/// controller and a firmware instance built for the replay, with the call
/// latencies of `system`'s config (so an NVMe-oF platform replays its
/// slower fetch).  The firmware runs on `system`'s CSE and posts to the
/// replay's own status queue.  Uses each group's recorded compute time as
/// the firmware's service time.
[[nodiscard]] ProtocolReplayResult replay_csd_protocol(
    system::SystemModel& system, const ExecutionReport& report);

}  // namespace isp::runtime
