#include "oracle/firmware.hpp"

#include <utility>

#include "common/error.hpp"

namespace isp::csd {

Firmware::Firmware(sim::Simulator& simulator, Cse& cse,
                   nvme::CallQueue& calls, nvme::StatusQueue& status,
                   FirmwareConfig config)
    : simulator_(&simulator),
      cse_(&cse),
      calls_(&calls),
      status_(&status),
      config_(config) {
  ISP_CHECK(config_.chunks >= 1, "firmware needs at least one chunk");
}

void Firmware::start(ServiceTime service_time, Completion on_complete) {
  ISP_CHECK(service_time != nullptr, "firmware needs a service-time model");
  service_time_ = std::move(service_time);
  on_complete_ = std::move(on_complete);
  if (running_) return;
  running_ = true;
  const auto epoch = epoch_;
  simulator_->schedule(Seconds::zero(), [this, epoch] {
    if (epoch != epoch_) return;
    poll();
  });
}

void Firmware::poll() {
  if (!running_) return;
  if (!busy_) {
    if (const auto entry = calls_->fetch()) {
      busy_ = true;
      current_ = *entry;  // fetch is destructive; keep it for crash restart
      const Seconds total = service_time_(*entry);
      const Seconds chunk =
          total / static_cast<double>(config_.chunks);
      // Instruction accounting: chunks retire work proportional to their
      // share of the function, converted through the CSE clock.
      const double instr_per_chunk =
          chunk.value() * cse_->config().clock.value() / config_.chunks;
      run_chunk(*entry, chunk, 0, instr_per_chunk);
      return;  // chunk chain reschedules polling on completion
    }
  }
  const auto epoch = epoch_;
  simulator_->schedule(config_.poll_interval, [this, epoch] {
    if (epoch != epoch_) return;
    poll();
  });
}

void Firmware::run_chunk(nvme::CallEntry entry, Seconds chunk_time,
                         std::uint32_t chunk, double instr_per_chunk) {
  const auto epoch = epoch_;
  Seconds crash_penalty = Seconds::zero();
  if (injector_ != nullptr) {
    // A crash costs the core restart plus the chunk's lost progress; the
    // retry policy bounds how many times the firmware re-dispatches.
    const auto op = injector_->attempt(
        fault::Site::CseCrash, simulator_->now(),
        injector_->config().cse_restart + chunk_time);
    crash_penalty = op.penalty;
    if (op.exhausted) {
      // The core will not hold this function: abandon it, flag the host
      // through the high-priority status path so the runtime pulls the
      // line back (degradation ladder, final rung), and keep polling.
      simulator_->schedule(crash_penalty, [this, entry, chunk, op, epoch] {
        if (epoch != epoch_) return;
        nvme::StatusEntry status;
        status.line = entry.first_line;
        status.chunk = chunk;
        status.chunks_total = config_.chunks;
        status.instructions_retired = instructions_retired_;
        status.timestamp = simulator_->now();
        status.high_priority_request = true;
        status_->post(status);
        busy_ = false;
        current_.reset();
        ++functions_failed_;
        if (on_failure_) {
          on_failure_(entry,
                      isp::Status{StatusCode::DeviceCrash, op.faults});
        }
        simulator_->schedule(config_.poll_interval, [this, epoch] {
          if (epoch != epoch_) return;
          poll();
        });
      });
      return;
    }
  }
  // Execute one chunk under the CSE's availability, then report.
  const auto done = cse_->availability().finish_time(
      simulator_->now() + crash_penalty, chunk_time);
  ISP_CHECK(done < SimTime::infinity(), "CSE starved during firmware chunk");
  simulator_->schedule_at(done, [this, entry, chunk_time, chunk,
                                 instr_per_chunk, epoch] {
    if (epoch != epoch_) return;  // power cycle voided this chunk
    instructions_retired_ += instr_per_chunk;
    cse_->retire(instr_per_chunk, chunk_time.value() *
                                      cse_->config().clock.value());
    nvme::StatusEntry status;
    status.line = entry.first_line;
    status.chunk = chunk;
    status.chunks_total = config_.chunks;
    status.instructions_retired = instructions_retired_;
    status.timestamp = simulator_->now();
    status.high_priority_request = high_priority_;
    status_->post(status);

    if (chunk + 1 < config_.chunks) {
      run_chunk(entry, chunk_time, chunk + 1, instr_per_chunk);
    } else {
      busy_ = false;
      current_.reset();
      ++functions_executed_;
      if (on_complete_) on_complete_(entry);
      simulator_->schedule(config_.poll_interval, [this, epoch] {
        if (epoch != epoch_) return;
        poll();
      });
    }
  });
}

void Firmware::power_cycle() {
  ++epoch_;  // every scheduled chunk/poll lambda is now a no-op
  busy_ = false;
  high_priority_ = false;
  instructions_retired_ = 0.0;  // perf counters don't survive a reboot
  if (current_) {
    // The call record lives in host-visible memory; the host re-submits the
    // interrupted function, and the rebooted firmware runs it from chunk 0.
    if (calls_->submit(*current_)) ++functions_restarted_;
    current_.reset();
  }
  if (running_) {
    const auto epoch = epoch_;
    simulator_->schedule(config_.poll_interval, [this, epoch] {
      if (epoch != epoch_) return;
      poll();
    });
  }
}

}  // namespace isp::csd
