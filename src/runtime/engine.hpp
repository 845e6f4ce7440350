// The execution engine: runs a lowered program on a SystemModel under
// virtual time, producing an ExecutionReport.
//
// This is the one timing path in the repository — the sampling-phase
// profiler, the exhaustive programmer-directed oracle, the static C
// baselines and full ActiveCpp runs all execute here, differing only in
// options.  The walk is sequential (lines are data-dependent, as in the
// paper's single-entry-single-exit regions); concurrency with device-side
// contention is expressed through availability schedules.
//
// Engine::run is a sequence of named stages over one run state (RunState
// in engine.cpp):
//   set-up: the object store, the storage dataset names, private copies of
//      the availability schedules, the monitor, the compile charge, the
//      fault plan, and the storage helper, which mounts the datasets when
//      the backend is driven.  The helper (DeviceStorage) owns faulted flash
//      I/O, the write-back cursor, the reclaim stall and the power cycle.
//   per line, in order:
//     1. begin: a crash opportunity at the line start;
//     2. inputs: stored data at the placement-side bandwidth, the other
//        side's objects over the host link (BAR penalty for objects a
//        migration left behind);
//     3. control: code-image distribution before the first CSD call, the
//        short call entering a CSD group, interpreter dispatch,
//        then input marshalling (mode-dependent);
//     4. compute: on the host, or in chunks through the CSE availability
//        schedule, where each chunk boundary is a crash opportunity and
//        each chunk posts a status update that feeds the monitor;
//     5. break-now migration: a CSD line that gave up at a chunk boundary
//        (the monitor's advice, or a fault the retries could not absorb)
//        hands its unprocessed fraction to the host;
//     6. outputs: the real kernel, the output sizes a kernel run recorded,
//        or the plan's estimates for a line without a kernel; then output
//        marshalling;
//     7. write-back of persisted outputs (and the reclaim stall it causes);
//     8. between-lines migration: a decision taken on a line's last chunk
//        takes effect at the end of the line (§III-D);
//   results to host, then the report and metrics.
#pragma once

#include <optional>

#include "codegen/lowering.hpp"
#include "fault/fault.hpp"
#include "ir/plan.hpp"
#include "ir/program.hpp"
#include "runtime/monitor.hpp"
#include "runtime/report.hpp"
#include "sim/availability.hpp"
#include "system/model.hpp"

namespace isp::obs {
class MetricsRegistry;
}

namespace isp::runtime {

/// Stress the CSE after the ISP task reaches a progress fraction — the
/// methodology of Figure 5 ("right after each application's ISP tasks make
/// 50% of their progress").
struct ContentionTrigger {
  bool enabled = false;
  double at_csd_progress = 0.5;  // fraction of planned CSD work completed
  double availability = 1.0;     // CSE fraction left afterwards
};

struct EngineOptions {
  codegen::RuntimeOverheadModel overhead;
  /// Replay a kernel run instead of calling kernels: the output sizes a
  /// kernel run of this program recorded (ExecutionReport::output_sizes),
  /// or sizes derived from plan estimates for a timing-only replay.
  /// Timing reads only each object's virtual size, location and BAR flag,
  /// and kernels are pure functions of the datasets, so the run's report,
  /// metrics and backend traffic are bit-for-bit those of the kernel run —
  /// under any plan, availability, fault seed or storage setting.  Datasets
  /// enter the store without payloads and no output carries one.  Lines
  /// without a kernel still size their outputs from the plan estimates.
  const ir::OutputSizes* output_sizes = nullptr;
  /// Post status updates and run the monitor on CSD lines.
  bool monitoring = true;
  /// Act on the monitor's advice (off = "ActivePy w/o migration").
  bool migration = true;
  /// Initial CSE availability (Figure 2's x-axis).
  sim::AvailabilitySchedule cse_availability;
  /// Host CPU availability: contention from other applications on the host
  /// side (§II-B(3) names both directions of resource contention).
  sim::AvailabilitySchedule host_availability;
  ContentionTrigger contention;
  MonitorConfig monitor;
  /// Live-variable block saved on migration (locals; shared-memory objects
  /// are accounted separately by residency).
  Bytes migration_state_bytes = Bytes{256 * 1024};
  /// Deterministic fault injection across the device stack.  With every
  /// site at rate zero (the default) no injector is created and the engine
  /// takes exactly the fault-free code paths — timing is bit-for-bit
  /// identical to a build without the fault layer.
  fault::FaultConfig fault;
  /// Drive the device's storage backend even without PowerLoss armed:
  /// datasets mount as live mappings, persisted outputs go through
  /// write()/zone-append bookkeeping, and the backend-internal traffic the
  /// run triggers (FTL GC relocations / ZNS copy-forward, metadata
  /// programs, erases) is charged to virtual time as a device-side reclaim
  /// stall — the §II-B(3) contention made explicit per run.  Off by
  /// default: the fault-free timing path is bit-for-bit unchanged.
  bool drive_storage = false;
  /// Observability sink (optional).  When set, the engine folds per-line
  /// placements, migrations, monitor/status-update traffic, fault-site
  /// counters, and the device FTL's GC/journal/write-amplification stats
  /// into the registry at the end of the run under "engine.*", "monitor.*",
  /// "fault.*" and "ftl.*".  Recording charges no virtual time: the
  /// ExecutionReport is bit-for-bit identical with or without a sink.
  obs::MetricsRegistry* metrics = nullptr;
};

class Engine {
 public:
  explicit Engine(system::SystemModel& system) : system_(&system) {}

  /// Run `program` under `plan`/`lowered`.  A fresh ObjectStore is created
  /// from the program datasets unless `store` is provided (the sampler
  /// passes sampled stores).
  ExecutionReport run(const ir::Program& program, const ir::Plan& plan,
                      const codegen::LoweredProgram& lowered,
                      const EngineOptions& options,
                      ir::ObjectStore* store = nullptr);

 private:
  system::SystemModel* system_;
};

/// Convenience wrapper: lower with `mode` and run.
ExecutionReport run_program(system::SystemModel& system,
                            const ir::Program& program, const ir::Plan& plan,
                            codegen::ExecMode mode,
                            const EngineOptions& options,
                            ir::ObjectStore* store = nullptr);

}  // namespace isp::runtime
