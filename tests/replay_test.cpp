// Differential tests: an engine run that replays recorded kernel output
// sizes (EngineOptions::output_sizes) against the run that calls the real
// kernels, the oracle.  Timing reads only each object's virtual size,
// location and BAR flag, so the two must agree byte for byte — report JSON
// and metrics registry — on every Table-I app, whatever the run does:
// migrate under contention, absorb injected faults, power-cycle a driven
// FTL or ZNS backend, or persist its results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "obs/metrics.hpp"
#include "runtime/active_runtime.hpp"
#include "runtime/engine.hpp"
#include "system/model.hpp"

namespace isp {
namespace {

struct RunOutput {
  std::string report_json;
  std::string metrics_json;
  ir::OutputSizes sizes;
  std::uint32_t migrations = 0;
  std::uint32_t power_losses = 0;
  std::uint64_t faults = 0;
  bool storage_driven = false;
};

RunOutput run_once(const system::SystemConfig& config,
                   const ir::Program& program, const ir::Plan& plan,
                   runtime::EngineOptions options,
                   const ir::OutputSizes* recorded) {
  system::SystemModel system(config);
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  options.output_sizes = recorded;
  const auto report =
      runtime::run_program(system, program, plan,
                           codegen::ExecMode::CompiledNoCopy, options);
  return RunOutput{.report_json = report.to_json(),
                   .metrics_json = metrics.to_json(),
                   .sizes = report.output_sizes,
                   .migrations = report.migrations,
                   .power_losses = report.power_losses,
                   .faults = report.faults.total_injected(),
                   .storage_driven = report.storage.driven};
}

/// One app, profiled once the way serve() profiles a job class: the plan
/// and the kernel run's recorded output sizes.
struct Profiled {
  ir::Program program;
  ir::Plan plan;
  ir::OutputSizes sizes;
};

Profiled profile(const std::string& app, bool persist) {
  apps::AppConfig ac;
  ac.size_factor = 0.05;
  Profiled p{.program = apps::make_app(app, ac), .plan = {}, .sizes = {}};
  if (persist) {
    for (std::size_t i = p.program.line_count(); i-- > 0;) {
      if (!p.program.lines()[i].outputs.empty()) {
        p.program.line_mut(i).writes_storage = true;
        break;
      }
    }
  }
  system::SystemModel system;
  runtime::ActiveRuntime active(system);
  const auto result = active.run(p.program);
  p.plan = result.plan;
  p.sizes = result.report.output_sizes;
  return p;
}

/// Runs `options` with kernels and with the recorded sizes, and requires
/// identical exports.  Returns the kernel run for case-specific checks.
RunOutput expect_replay_exact(const std::string& app, const Profiled& p,
                              const system::SystemConfig& config,
                              const ir::Plan& plan,
                              const runtime::EngineOptions& options,
                              const char* what) {
  const auto kernels = run_once(config, p.program, plan, options, nullptr);
  const auto replay = run_once(config, p.program, plan, options, &p.sizes);
  EXPECT_EQ(replay.report_json, kernels.report_json) << app << " " << what;
  EXPECT_EQ(replay.metrics_json, kernels.metrics_json) << app << " " << what;
  EXPECT_EQ(replay.sizes, kernels.sizes) << app << " " << what;
  EXPECT_EQ(kernels.sizes, p.sizes) << app << " " << what;
  return kernels;
}

std::vector<std::string> app_names() {
  std::vector<std::string> names;
  for (const auto& info : apps::all_apps()) names.push_back(info.name);
  return names;
}

TEST(KernelReplay, CoversAllTenApps) { EXPECT_EQ(app_names().size(), 10u); }

TEST(KernelReplay, PlainRunMatchesKernels) {
  const auto config = system::SystemConfig::paper_platform();
  for (const auto& app : app_names()) {
    const auto p = profile(app, false);
    const auto out =
        expect_replay_exact(app, p, config, p.plan, {}, "plain");
    EXPECT_FALSE(out.storage_driven) << app;
  }
}

TEST(KernelReplay, ContendedRunWithMigrationMatchesKernels) {
  const auto config = system::SystemConfig::paper_platform();
  runtime::EngineOptions options;
  options.contention = runtime::ContentionTrigger{
      .enabled = true, .at_csd_progress = 0.5, .availability = 0.1};
  std::uint32_t migrations = 0;
  for (const auto& app : app_names()) {
    const auto p = profile(app, false);
    // Every line offloaded, so the contention trigger has CSD work to starve
    // and the monitor has something to migrate.
    ir::Plan plan = p.plan;
    for (auto& placement : plan.placement) placement = ir::Placement::Csd;
    migrations +=
        expect_replay_exact(app, p, config, plan, options, "contended")
            .migrations;
  }
  EXPECT_GT(migrations, 0u) << "no app migrated: the case lost its point";
}

TEST(KernelReplay, FaultArmedRunMatchesKernels) {
  const auto config = system::SystemConfig::paper_platform();
  runtime::EngineOptions options;
  options.fault.seed = 0x5eed;
  options.fault.set_rate_all(0.05);
  options.fault.set_rate(fault::Site::PowerLoss, 0.02);
  std::uint64_t faults = 0;
  for (const auto& app : app_names()) {
    const auto p = profile(app, false);
    faults +=
        expect_replay_exact(app, p, config, p.plan, options, "faulted").faults;
  }
  EXPECT_GT(faults, 0u) << "no fault fired: the case lost its point";
}

TEST(KernelReplay, DrivenStorageWithPowerLossMatchesKernelsOnFtlAndZns) {
  for (const auto kind : {flash::BackendKind::Ftl, flash::BackendKind::Zns}) {
    auto config = system::SystemConfig::paper_platform();
    config.csd.backend = kind;
    runtime::EngineOptions options;
    options.drive_storage = true;
    options.fault.seed = 0xc0ffee;
    options.fault.set_rate(fault::Site::PowerLoss, 0.05);
    std::uint32_t power_losses = 0;
    for (const auto& app : app_names()) {
      const auto p = profile(app, false);
      const auto out = expect_replay_exact(app, p, config, p.plan, options,
                                           "driven + power loss");
      EXPECT_TRUE(out.storage_driven) << app;
      power_losses += out.power_losses;
    }
    EXPECT_GT(power_losses, 0u) << "no power loss fired";
  }
}

TEST(KernelReplay, PersistingClassMatchesKernels) {
  for (const auto kind : {flash::BackendKind::Ftl, flash::BackendKind::Zns}) {
    auto config = system::SystemConfig::paper_platform();
    config.csd.backend = kind;
    runtime::EngineOptions options;
    options.drive_storage = true;
    for (const auto& app : app_names()) {
      const auto p = profile(app, true);
      const auto out =
          expect_replay_exact(app, p, config, p.plan, options, "persisting");
      EXPECT_TRUE(out.storage_driven) << app;
    }
  }
}

TEST(KernelReplay, MismatchedRecordIsRejected) {
  const auto p = profile("tpch-q6", false);
  system::SystemModel system;
  runtime::EngineOptions options;
  ir::OutputSizes short_record = p.sizes;
  short_record.pop_back();
  options.output_sizes = &short_record;
  EXPECT_THROW(runtime::run_program(system, p.program, p.plan,
                                    codegen::ExecMode::CompiledNoCopy, options),
               Error);
}

}  // namespace
}  // namespace isp
