// Test oracle: the CSD firmware loop (§III-C(b)), "the CSD's CSE fetches a
// request from the call queue whenever the CSE is free".
//
// This is the device-resident half of ActivePy's control plane, run as
// events on an oracle simulator: the host submits CallEntries describing
// generated CSD functions; the firmware fetches one entry at a time, runs
// it for a caller-provided service time (the protocol replay passes each
// group's recorded compute; unit tests pass a stub), posts per-chunk status
// updates, and completes back to the host.  A high-priority flag raised by
// the device (e.g. the storage-management path needing the CSE) is
// propagated through the status stream, exactly as §III-D case 1
// describes.
//
// The execution engine charges the same call analytically and never runs
// this loop; the firmware exists so the queue-pair protocol is a tested,
// working artefact that checks those charges (oracle/protocol_replay.hpp
// drives host→SQ→fetch→execute→status→CQ end to end).
#pragma once

#include <functional>
#include <optional>

#include "common/status.hpp"
#include "csd/cse.hpp"
#include "fault/fault.hpp"
#include "oracle/nvme_queues.hpp"
#include "oracle/simulator.hpp"

namespace isp::csd {

struct FirmwareConfig {
  /// Polling interval of the fetch loop while idle.
  Seconds poll_interval = Seconds{5e-6};
  /// Chunks per executed function (status updates per §III-C(b)).
  std::uint32_t chunks = 8;
};

class Firmware {
 public:
  /// `service_time` maps a fetched call to its total execution time on the
  /// CSE; `on_complete` fires when the function finishes.
  using ServiceTime = std::function<Seconds(const nvme::CallEntry&)>;
  using Completion = std::function<void(const nvme::CallEntry&)>;
  /// Fires when a function is abandoned after the crash-retry policy is
  /// exhausted (status carries StatusCode::DeviceCrash + attempts).
  using Failure = std::function<void(const nvme::CallEntry&, isp::Status)>;

  Firmware(sim::Simulator& simulator, Cse& cse, nvme::CallQueue& calls,
           nvme::StatusQueue& status, FirmwareConfig config = {});

  /// Start the fetch loop (idempotent).
  void start(ServiceTime service_time, Completion on_complete);

  /// Stop fetching after the current function completes.
  void stop() { running_ = false; }

  /// Raise the high-priority request flag: the next status update asks the
  /// host to take work back (§III-D case 1).
  void raise_high_priority() { high_priority_ = true; }

  /// Attach a fault injector (nullptr detaches; not owned).  Each chunk
  /// then passes through the CseCrash site: a crashed core restarts (core
  /// reset + the lost chunk re-run) with exponential backoff; when retries
  /// are exhausted the function is abandoned, a high-priority status update
  /// asks the host to pull the work back, and `on_failure` fires with a
  /// typed DeviceCrash status — the loop keeps polling, it never hangs.
  void set_injector(fault::Injector* injector) { injector_ = injector; }

  /// Install the exhausted-crash callback (optional; see set_injector).
  void set_on_failure(Failure on_failure) {
    on_failure_ = std::move(on_failure);
  }

  /// Power cut mid-function: the chunk chain in flight is invalidated
  /// (epoch gate), volatile firmware state — progress counters, the
  /// high-priority flag — is cleared, and the interrupted call is
  /// re-submitted to the call queue (the call record is host-resident) so
  /// the rebooted firmware restarts it from chunk 0.  The poll loop re-arms
  /// itself if it was running.
  void power_cycle();

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::uint64_t functions_executed() const {
    return functions_executed_;
  }
  [[nodiscard]] std::uint64_t functions_failed() const {
    return functions_failed_;
  }
  /// Functions interrupted by a power cycle and re-submitted for restart.
  [[nodiscard]] std::uint64_t functions_restarted() const {
    return functions_restarted_;
  }

 private:
  void poll();
  void run_chunk(nvme::CallEntry entry, Seconds chunk_time,
                 std::uint32_t chunk, double instr_per_chunk);

  sim::Simulator* simulator_;
  Cse* cse_;
  nvme::CallQueue* calls_;
  nvme::StatusQueue* status_;
  FirmwareConfig config_;
  ServiceTime service_time_;
  Completion on_complete_;
  Failure on_failure_;
  bool running_ = false;
  bool busy_ = false;
  bool high_priority_ = false;
  double instructions_retired_ = 0.0;
  std::uint64_t functions_executed_ = 0;
  std::uint64_t functions_failed_ = 0;
  std::uint64_t functions_restarted_ = 0;
  /// Bumped by power_cycle(); stale chunk/poll lambdas fire as no-ops.
  std::uint64_t epoch_ = 0;
  /// The call being executed right now (fetch is destructive, so this is
  /// what a power cycle must put back).
  std::optional<nvme::CallEntry> current_;
  fault::Injector* injector_ = nullptr;
};

}  // namespace isp::csd
