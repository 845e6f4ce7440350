// Execution reports: everything a run can tell you afterwards.
//
// The benches reproduce the paper's figures from these records: end-to-end
// latency (Figures 2, 4, 5), per-line placements (the "identical region set"
// claim in §V), link traffic by purpose, migration counts and overheads, and
// status-update volume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "fault/fault.hpp"
#include "flash/backend.hpp"
#include "interconnect/dma.hpp"
#include "ir/plan.hpp"
#include "ir/program.hpp"

namespace isp::runtime {

struct LineRecord {
  std::uint32_t index = 0;
  std::string name;
  ir::Placement placement = ir::Placement::Host;  // where it actually ran
  SimTime start;
  SimTime end;
  Seconds compute;       // pure compute (after mode multiplier, contention)
  Seconds access;        // stored-data read time
  Seconds transfer_in;   // inter-line input movement over the link
  Seconds marshal;       // language-runtime boundary copies
  Seconds overhead;      // dispatch + call + instrumentation
  Bytes in_bytes;        // virtual input volume
  Bytes out_bytes;       // virtual output volume
  Bytes storage_bytes;   // stored data consumed
  double observed_rate = 0.0;  // instructions/s over the line (CSD lines)
  std::uint32_t faults = 0;    // injected faults attributed to this line
  Seconds fault_penalty;       // virtual time the line lost to fault handling
};

/// What the storage backend did while the engine drove it (dataset mount +
/// result write-back).  Deltas over the run, not device lifetime totals, so
/// memoised and repeated runs report identical activity.  `reclaim_time` is
/// the device-side stall the run was charged for backend-internal traffic
/// (GC relocations / ZNS copy-forward, metadata programs, erases) — only
/// non-zero when EngineOptions::drive_storage is on.
struct StorageActivity {
  bool driven = false;  // did the engine drive a backend this run?
  flash::BackendKind backend = flash::BackendKind::Ftl;
  std::uint64_t host_pages = 0;
  std::uint64_t reclaim_pages = 0;
  std::uint64_t meta_pages = 0;
  std::uint64_t resets = 0;
  std::uint64_t reclaim_events = 0;
  double write_amplification = 1.0;  // over this run's host pages
  Seconds reclaim_time;

  [[nodiscard]] double run_write_amplification() const {
    if (host_pages == 0) return 1.0;
    return static_cast<double>(host_pages + reclaim_pages + meta_pages) /
           static_cast<double>(host_pages);
  }
};

struct ExecutionReport {
  std::string program;
  Seconds total;            // end-to-end latency, including compile overhead
  Seconds compile_overhead; // code generation (Cython) latency
  std::vector<LineRecord> lines;

  std::uint32_t migrations = 0;
  Seconds migration_overhead;   // regeneration + live-state movement
  std::uint64_t status_updates = 0;
  std::uint32_t csd_calls = 0;  // call-queue invocations

  /// Whole-device power cycles survived during the run, and the virtual
  /// time they cost end to end: downtime + FTL remount (journal/checkpoint
  /// replay, OOB scan) + re-staging lost device-DRAM state.
  std::uint32_t power_losses = 0;
  Seconds recovery_overhead;

  interconnect::DmaStats dma;

  /// Storage-backend traffic this run generated (all zeros when the engine
  /// did not drive a backend).
  StorageActivity storage;

  /// Aggregate fault-injection outcome (all zeros on fault-free runs) and
  /// the per-episode log behind it (bounded; feeds the trace export).
  fault::FaultSummary faults;
  std::vector<fault::FaultRecord> fault_records;

  /// The virtual size of every output the run produced, line by line: a
  /// kernel run's record, which EngineOptions::output_sizes replays.  Not
  /// part of to_json().
  ir::OutputSizes output_sizes;

  [[nodiscard]] Seconds compute_total() const;
  [[nodiscard]] Seconds access_total() const;
  [[nodiscard]] std::size_t lines_on_csd() const;

  /// Human-readable per-line timeline (for examples and debugging).
  [[nodiscard]] std::string to_string() const;

  /// Machine-readable export for downstream tooling (plotting, CI trend
  /// tracking).  Self-contained JSON object; no external dependencies.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace isp::runtime
