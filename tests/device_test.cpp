// Unit + integration tests: host CPU model, CSE, CSD device, the firmware
// oracle's fetch loop over the oracle simulator, system model composition,
// trace export, and the protocol replay that checks the engine's analytic
// control-plane charges.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "csd/device.hpp"
#include "host/cpu.hpp"
#include "apps/registry.hpp"
#include "baseline/baselines.hpp"
#include "oracle/firmware.hpp"
#include "oracle/protocol_replay.hpp"
#include "oracle/simulator.hpp"
#include "runtime/active_runtime.hpp"
#include "runtime/trace.hpp"
#include "system/model.hpp"

namespace isp {
namespace {

TEST(HostCpu, WorkAndThreads) {
  host::HostCpu cpu;
  const Seconds work = cpu.work_seconds(Cycles{3.6e9});
  EXPECT_NEAR(work.value(), 1.0, 1e-12);
  EXPECT_NEAR(cpu.compute_seconds(work, 4).value(), 0.25, 1e-12);
  // Thread counts clamp at the core count.
  EXPECT_NEAR(cpu.compute_seconds(work, 64).value(), 1.0 / 8.0, 1e-12);
  EXPECT_THROW(static_cast<void>(cpu.compute_seconds(work, 0)), Error);
}

TEST(Cse, SpeedRatioMatchesPaperPlatform) {
  csd::Cse cse;
  // 1.5 GHz / 3.6 GHz x 0.5 IPC = 0.2083x one host core.
  EXPECT_NEAR(cse.core_speed_vs_host(), 0.2083, 0.001);
  // 8 cores together: 1.667x one host core.
  const Seconds work{1.0};
  EXPECT_NEAR(cse.compute_seconds(work, 8).value(), 1.0 / 1.6667, 0.01);
  // Serial on the CSE: 4.8x slower than one host core.
  EXPECT_NEAR(cse.compute_seconds(work, 1).value(), 4.8, 0.01);
}

TEST(Cse, CountersAccumulate) {
  csd::Cse cse;
  cse.retire(1000.0, 2000.0);
  cse.retire(500.0, 500.0);
  EXPECT_DOUBLE_EQ(cse.counters().instructions, 1500.0);
  EXPECT_DOUBLE_EQ(cse.counters().cycles, 2500.0);
  EXPECT_DOUBLE_EQ(cse.counters().ipc(), 0.6);
  cse.reset_counters();
  EXPECT_DOUBLE_EQ(cse.counters().ipc(), 0.0);
}

TEST(CsdDevice, CallOverheadFromControllerConfig) {
  csd::CsdConfig config;
  csd::CsdDevice device(config);
  EXPECT_NEAR(device.call_overhead().value(),
              config.controller.doorbell_to_fetch.value() +
                  config.controller.completion_post.value(),
              1e-12);
}

/// Runs `build` and returns the message of the isp::Error it throws ("" if
/// it returns normally).
template <typename F>
std::string construction_error(F build) {
  try {
    build();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// The backend's maps are allocated on first use, but an infeasible backend
// config must still fail where the device is built, with the backend's own
// message — not at some later storage() call.
TEST(CsdDevice, InfeasibleBackendConfigThrowsAtConstruction) {
  system::SystemConfig ftl = system::SystemConfig::paper_platform();
  ftl.csd.nand_geometry.channels = 1;
  ftl.csd.nand_geometry.dies_per_channel = 1;
  ftl.csd.nand_geometry.blocks_per_die = 24;
  ftl.csd.nand_geometry.pages_per_block = 8;
  ftl.csd.ftl_overprovision = 0.05;  // 23 logical blocks + 2 + 4 > 24
  EXPECT_NE(construction_error([&] { system::SystemModel model(ftl); })
                .find("overprovision too small for the GC watermarks"),
            std::string::npos);
  EXPECT_NE(construction_error([&] { csd::CsdDevice device(ftl.csd); })
                .find("overprovision too small for the GC watermarks"),
            std::string::npos);

  system::SystemConfig zns = system::SystemConfig::paper_platform();
  zns.csd.backend = flash::BackendKind::Zns;
  zns.csd.zns_zone_blocks = 7;  // 2048 blocks do not split into 7-block zones
  EXPECT_NE(construction_error([&] { system::SystemModel model(zns); })
                .find("zone_blocks must tile the array"),
            std::string::npos);
  EXPECT_NE(construction_error([&] { csd::CsdDevice device(zns.csd); })
                .find("zone_blocks must tile the array"),
            std::string::npos);
}

TEST(CsdDevice, BackendIsBuiltOnFirstStorageUse) {
  for (const auto kind : {flash::BackendKind::Ftl, flash::BackendKind::Zns}) {
    system::SystemConfig config = system::SystemConfig::paper_platform();
    config.csd.backend = kind;
    system::SystemModel model(config);
    EXPECT_FALSE(model.csd_device().storage_built());

    // A run that never drives storage leaves the backend unbuilt.
    runtime::ActiveRuntime active(model);
    apps::AppConfig ac;
    ac.size_factor = 0.05;
    const auto result = active.run(apps::make_app("tpch-q6", ac));
    EXPECT_FALSE(result.report.storage.driven);
    EXPECT_FALSE(model.csd_device().storage_built());

    EXPECT_EQ(model.csd_device().storage().kind(), kind);
    EXPECT_TRUE(model.csd_device().storage_built());
    EXPECT_TRUE(model.csd_device().storage().mounted());
  }
}

TEST(Firmware, ExecutesCallsAndPostsStatus) {
  sim::Simulator simulator;
  csd::Cse cse;
  nvme::CallQueue calls(8);
  nvme::StatusQueue status(64);
  csd::FirmwareConfig config;
  config.chunks = 4;
  csd::Firmware firmware(simulator, cse, calls, status, config);

  std::vector<std::uint32_t> completed;
  firmware.start(
      [](const nvme::CallEntry&) { return Seconds{0.01}; },
      [&](const nvme::CallEntry& entry) {
        completed.push_back(entry.function_id);
        if (completed.size() == 2) {
          // Stop once both functions ran so the poll loop drains.
          return;
        }
      });

  calls.submit(nvme::CallEntry{.function_id = 1, .first_line = 0});
  calls.submit(nvme::CallEntry{.function_id = 2, .first_line = 3});

  simulator.run_until(SimTime{0.05});
  firmware.stop();
  simulator.run_until(SimTime{0.1});

  ASSERT_EQ(completed.size(), 2u);
  EXPECT_EQ(completed[0], 1u);
  EXPECT_EQ(completed[1], 2u);
  EXPECT_EQ(firmware.functions_executed(), 2u);
  EXPECT_FALSE(firmware.busy());

  // 4 status updates per function, ascending chunk ids, instruction counts
  // strictly increasing.
  std::size_t updates = 0;
  double last_instr = 0.0;
  while (const auto e = status.poll()) {
    ++updates;
    EXPECT_LT(e->chunk, 4u);
    EXPECT_GT(e->instructions_retired, last_instr);
    last_instr = e->instructions_retired;
    EXPECT_FALSE(e->high_priority_request);
  }
  EXPECT_EQ(updates, 8u);
  EXPECT_GT(cse.counters().instructions, 0.0);
}

TEST(Firmware, ThrottledCseStretchesExecution) {
  sim::Simulator simulator;
  csd::Cse cse;
  cse.set_availability(sim::AvailabilitySchedule::constant(0.25));
  nvme::CallQueue calls(8);
  nvme::StatusQueue status(64);
  csd::Firmware firmware(simulator, cse, calls, status);

  SimTime finished = SimTime::zero();
  firmware.start([](const nvme::CallEntry&) { return Seconds{0.01}; },
                 [&](const nvme::CallEntry&) { finished = simulator.now(); });
  calls.submit(nvme::CallEntry{.function_id = 1});
  simulator.run_until(SimTime{1.0});
  firmware.stop();
  // 10 ms of work at 25% availability: at least 40 ms.
  EXPECT_GE(finished.seconds(), 0.04);
}

TEST(Firmware, HighPriorityFlagPropagates) {
  sim::Simulator simulator;
  csd::Cse cse;
  nvme::CallQueue calls(8);
  nvme::StatusQueue status(64);
  csd::Firmware firmware(simulator, cse, calls, status);
  firmware.raise_high_priority();
  firmware.start([](const nvme::CallEntry&) { return Seconds{0.001}; },
                 nullptr);
  calls.submit(nvme::CallEntry{.function_id = 9});
  simulator.run_until(SimTime{0.01});
  firmware.stop();
  const auto entry = status.poll();
  ASSERT_TRUE(entry);
  EXPECT_TRUE(entry->high_priority_request);
}

TEST(SystemModel, BandwidthsMatchPaper) {
  system::SystemModel system;
  EXPECT_NEAR(system.storage_to_csd_bandwidth().value() / 1e9, 9.0, 0.3);
  // Host-side reads cap at the 5 GB/s link.
  EXPECT_NEAR(system.storage_to_host_bandwidth().value() / 1e9, 5.0, 0.01);
}

TEST(SystemModel, AddressSpaceCoversBothMemories) {
  system::SystemModel system;
  const auto& space = system.address_space();
  EXPECT_NE(space.window(mem::MemKind::HostDram), nullptr);
  EXPECT_NE(space.window(mem::MemKind::DeviceDram), nullptr);
  EXPECT_NE(space.window(mem::MemKind::DeviceBar), nullptr);
}

TEST(Trace, EmitsBalancedEventsForAllTracks) {
  runtime::ExecutionReport report;
  report.program = "trace-test";
  report.compile_overhead = Seconds{0.05};
  runtime::LineRecord line;
  line.index = 0;
  line.name = "scan";
  line.placement = ir::Placement::Csd;
  line.start = SimTime{0.05};
  line.end = SimTime{1.0};
  line.access = Seconds{0.2};
  line.transfer_in = Seconds{0.1};
  line.compute = Seconds{0.65};
  report.lines.push_back(line);

  const auto trace = runtime::to_chrome_trace(report);
  EXPECT_EQ(trace.front(), '[');
  EXPECT_EQ(trace.back(), ']');
  EXPECT_NE(trace.find("\"tid\":\"cse\""), std::string::npos);
  EXPECT_NE(trace.find("\"tid\":\"link\""), std::string::npos);
  EXPECT_NE(trace.find("\"tid\":\"host\""), std::string::npos);  // codegen
  EXPECT_NE(trace.find("scan [access]"), std::string::npos);

  const std::string path = "/tmp/isp_trace_test.json";
  runtime::write_chrome_trace(report, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, trace);
  std::remove(path.c_str());
}

// The event-driven protocol brackets the engine's analytic control plane:
// it costs at least the short calls the engine charged, and at most the
// whole per-line overhead the report books (dispatch, calls and status
// updates).  The replay takes its call latencies from the platform, so on
// NVMe-oF a controller with the default (PCIe) latencies would undercut the
// engine's call charges and fail the lower bound.
TEST(ProtocolReplay, MatchesAnalyticControlPlane) {
  apps::AppConfig config;
  config.size_factor = 0.2;
  for (const auto& platform : {system::SystemConfig::paper_platform(),
                               system::SystemConfig::paper_platform_nvmeof()}) {
    for (const char* app :
         {"tpch-q6", "tpch-q1", "kmeans", "pagerank", "blackscholes"}) {
      SCOPED_TRACE(std::string(app) +
                   (platform.attachment == system::AttachmentKind::NvmeOF
                        ? " over NVMe-oF"
                        : " over PCIe"));
      const auto program = apps::make_app(app, config);
      system::SystemModel system(platform);
      runtime::ActiveRuntime active(system);
      const auto result = active.run(program);
      const auto& report = result.report;
      ASSERT_GT(report.csd_calls, 0u);

      system::SystemModel replay_system(platform);
      const auto replay = runtime::replay_csd_protocol(replay_system, report);
      EXPECT_EQ(replay.calls_submitted, report.csd_calls);
      EXPECT_EQ(replay.completions, report.csd_calls);
      EXPECT_GT(replay.status_updates, 0u);
      // The event-driven execution time matches the engine's compute charges.
      Seconds csd_compute;
      Seconds line_overhead;
      for (const auto& line : report.lines) {
        if (line.placement == ir::Placement::Csd) csd_compute += line.compute;
        line_overhead += line.overhead;
      }
      EXPECT_NEAR(replay.execute_time.value(), csd_compute.value(), 1e-9);
      const Seconds call_charges =
          system.csd_device().call_overhead() *
          static_cast<double>(report.csd_calls);
      EXPECT_GE(replay.protocol_time.value(), call_charges.value());
      EXPECT_LE(replay.protocol_time.value(), line_overhead.value());
    }
  }
}

TEST(ProtocolReplay, HostOnlyReportIsANoOp) {
  apps::AppConfig config;
  config.size_factor = 0.2;
  const auto program = apps::make_app("tpch-q6", config);
  system::SystemModel system;
  const auto report = baseline::run_host_only(system, program);
  system::SystemModel replay_system;
  const auto replay = runtime::replay_csd_protocol(replay_system, report);
  EXPECT_EQ(replay.calls_submitted, 0u);
  EXPECT_EQ(replay.completions, 0u);
}

TEST(Trace, RejectsUnwritablePath) {
  runtime::ExecutionReport report;
  EXPECT_THROW(
      runtime::write_chrome_trace(report, "/nonexistent-dir/x.json"),
      Error);
}

}  // namespace
}  // namespace isp
