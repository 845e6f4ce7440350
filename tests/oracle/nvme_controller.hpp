// Test oracle: an event-driven NVMe controller front-end with round-robin
// arbitration.
//
// Doorbell writes wake the controller; after a fetch latency it serves the
// registered submission queues one command at a time in round-robin order
// (NVMe's default arbitration), dispatching IO to the flash array (through
// the storage backend for writes) and posting completions to the owning
// queue pair.  The vendor-specific CsdExec/CsdAbort commands go through a
// hook; the protocol replay (oracle/protocol_replay.hpp) uses it to hand
// calls to the firmware loop.
#pragma once

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "flash/backend.hpp"
#include "flash/flash_array.hpp"
#include "nvme/control_plane.hpp"
#include "oracle/nvme_queues.hpp"
#include "oracle/simulator.hpp"

namespace isp::nvme {

/// The oracle controller's timing: the call latencies the engine charges
/// (CsdConfig::controller), plus the host-visible timeout after which the
/// host requeues a command the NvmeCommand fault site lost.
struct OracleControllerConfig {
  ControllerConfig latency;
  Seconds command_timeout = Seconds{50e-6};
};

class Controller {
 public:
  /// `exec_hook`, if set, handles CsdExec commands and returns the service
  /// time the execution engine charged for the call.
  using ExecHook = std::function<Seconds(const SubmissionEntry&)>;
  /// Where Read/Write commands find the storage backend, asked once per IO
  /// command: the device hands out its lazily-built backend this way.  A
  /// source returning nullptr means IO is timed without mapping checks.
  using StorageSource = std::function<flash::StorageBackend*()>;

  Controller(sim::Simulator& simulator, flash::FlashArray& array,
             StorageSource storage, OracleControllerConfig config = {});

  /// Host writes the SQ tail doorbell: register the queue pair (first time)
  /// and start (or continue) processing.
  void ring_doorbell(QueuePair& qp);

  void set_exec_hook(ExecHook hook) { exec_hook_ = std::move(hook); }

  /// Attach a fault injector (nullptr detaches; not owned).  Fetched
  /// commands then pass through the NvmeCommand site: a faulted command is
  /// lost inside the device, recovered by a host-visible timeout + requeue
  /// at the SQ tail, and — after the retry policy is exhausted — completed
  /// with Status::Error.  Exactly one completion is posted per command
  /// regardless of how many attempts it took (no dangling CQ entries).
  void set_injector(fault::Injector* injector) { injector_ = injector; }

  /// Whole-device power cut (reset): every pending controller event is
  /// invalidated (epoch gate, so stale lambdas fire as no-ops), and every
  /// in-flight command — fetched but not yet completed — completes exactly
  /// once with Status::Aborted and is requeued by the host at its SQ tail,
  /// reusing the exactly-one-completion machinery of the timeout path.
  /// Queue contents survive: SQ/CQ rings live in host memory.  Returns the
  /// number of commands requeued.  The controller stays quiescent until
  /// restart().
  std::uint64_t power_cycle();

  /// Re-arm the fetch loop after a power cycle (the host re-rings the
  /// doorbells once the device reports ready).  No-op if nothing is queued.
  void restart();

  [[nodiscard]] std::uint64_t commands_processed() const {
    return commands_processed_;
  }
  /// Commands that exhausted their retries and completed with Error.
  [[nodiscard]] std::uint64_t commands_failed() const {
    return commands_failed_;
  }
  /// Commands aborted by a power cycle and requeued by the host.
  [[nodiscard]] std::uint64_t commands_requeued() const {
    return commands_requeued_;
  }
  [[nodiscard]] std::size_t queues_registered() const {
    return queues_.size();
  }

 private:
  /// (queue pair id, command id): retries are tracked per command so
  /// interleaved commands from different queues back off independently.
  using AttemptKey = std::pair<std::uint16_t, std::uint16_t>;

  /// Next queue with work, in round-robin order from the cursor; nullptr if
  /// every SQ is empty.
  QueuePair* select_queue();
  void process_next();
  void handle_timeout(QueuePair& qp, const SubmissionEntry& entry);
  void complete(QueuePair& qp, std::uint16_t command_id, Status status);

  sim::Simulator* simulator_;
  flash::FlashArray* array_;
  StorageSource storage_;
  OracleControllerConfig config_;
  ExecHook exec_hook_;
  std::vector<QueuePair*> queues_;
  std::size_t rr_cursor_ = 0;
  bool busy_ = false;
  std::uint64_t commands_processed_ = 0;
  std::uint64_t commands_failed_ = 0;
  std::uint64_t commands_requeued_ = 0;
  /// Bumped by power_cycle(); scheduled lambdas capture the value at
  /// schedule time and fire as no-ops if the device was reset meanwhile.
  std::uint64_t epoch_ = 0;
  fault::Injector* injector_ = nullptr;
  std::map<AttemptKey, std::uint32_t> attempts_;
  /// Commands fetched from an SQ whose completion has not been posted yet;
  /// a power cycle aborts + requeues exactly these.
  std::map<AttemptKey, std::pair<QueuePair*, SubmissionEntry>> inflight_;
};

}  // namespace isp::nvme
