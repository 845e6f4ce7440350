#include "oracle/protocol_replay.hpp"

#include <map>
#include <vector>

#include "common/error.hpp"
#include "oracle/firmware.hpp"
#include "oracle/nvme_controller.hpp"
#include "oracle/simulator.hpp"

namespace isp::runtime {

ProtocolReplayResult replay_csd_protocol(system::SystemModel& system,
                                         const ExecutionReport& report) {
  ProtocolReplayResult result;

  // Reconstruct the CSD groups: contiguous runs of CSD-placed lines, each
  // with its total compute time.
  struct Group {
    std::uint32_t first_line;
    Seconds compute;
  };
  std::vector<Group> groups;
  bool in_group = false;
  for (const auto& line : report.lines) {
    if (line.placement == ir::Placement::Csd) {
      if (!in_group) {
        groups.push_back(Group{line.index, Seconds::zero()});
        in_group = true;
      }
      groups.back().compute += line.compute;
    } else {
      in_group = false;
    }
  }
  if (groups.empty()) return result;

  // The replay's own protocol machinery.  Every group is submitted up
  // front, so the queues hold them all, and the status queue holds every
  // group's chunk updates.
  const auto depth = static_cast<std::uint32_t>(groups.size() + 1);
  const csd::FirmwareConfig firmware_config;
  sim::Simulator simulator;
  auto& device = system.csd_device();
  nvme::QueuePair qp(/*id=*/1, depth);
  nvme::CallQueue calls(depth);
  nvme::StatusQueue status(depth * firmware_config.chunks);
  nvme::Controller controller(
      simulator, device.flash_array(), [&] { return &device.storage(); },
      {.latency = system.config().csd.controller});

  // Service times per function id, consumed by both the controller hook and
  // the firmware.
  std::map<std::uint32_t, Seconds> service;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    service[static_cast<std::uint32_t>(g + 1)] = groups[g].compute;
    result.execute_time += groups[g].compute;
  }

  csd::Firmware firmware(simulator, device.cse(), calls, status,
                         firmware_config);
  std::uint64_t completed_functions = 0;
  SimTime last_completion = simulator.now();
  firmware.start(
      [&](const nvme::CallEntry& entry) {
        const auto it = service.find(entry.function_id);
        ISP_CHECK(it != service.end(), "unknown function id in replay");
        return it->second;
      },
      [&](const nvme::CallEntry&) {
        ++completed_functions;
        last_completion = simulator.now();
      });

  // The host side: submit one CsdExec per group.  The controller's exec hook
  // enqueues the call for the firmware and charges no controller time (the
  // firmware owns execution).
  controller.set_exec_hook([&](const nvme::SubmissionEntry& entry) {
    calls.submit(nvme::CallEntry{
        .function_id = static_cast<std::uint32_t>(entry.arg_address),
        .first_line = static_cast<std::uint32_t>(entry.lba),
        .arg_block = entry.arg_address});
    return Seconds::zero();
  });

  const SimTime start = simulator.now();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const bool pushed = qp.sq().push(nvme::SubmissionEntry{
        .opcode = nvme::Opcode::CsdExec,
        .command_id = static_cast<std::uint16_t>(g + 1),
        .lba = groups[g].first_line,
        .arg_address = g + 1});
    ISP_CHECK(pushed, "submission queue overflow during replay");
    ++result.calls_submitted;
  }
  controller.ring_doorbell(qp);
  // The firmware's poll loop reschedules itself while running, so the event
  // queue never drains on its own: step the clock in bounded slices until
  // every function completed (or a generous deadline trips).
  const SimTime deadline =
      start + result.execute_time * 4.0 + Seconds{1.0};
  while (completed_functions < groups.size() && simulator.now() < deadline) {
    simulator.run_until(simulator.now() + Seconds{0.01});
  }
  firmware.stop();
  simulator.run_until(simulator.now() + Seconds{1e-3});

  ISP_CHECK(completed_functions == groups.size(),
            "firmware completed " << completed_functions << " of "
                                  << groups.size() << " functions");

  while (qp.cq().pop()) ++result.completions;
  while (status.poll()) ++result.status_updates;
  const Seconds total = last_completion - start;
  result.protocol_time =
      total - result.execute_time;  // control-plane residue
  if (result.protocol_time < Seconds::zero()) {
    result.protocol_time = Seconds::zero();
  }
  return result;
}

}  // namespace isp::runtime
