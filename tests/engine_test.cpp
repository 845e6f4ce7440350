// Unit tests: the execution engine, monitor, codegen/lowering and exec-mode
// overheads.
#include <gtest/gtest.h>

#include "baseline/baselines.hpp"
#include "codegen/lowering.hpp"
#include "runtime/engine.hpp"
#include "runtime/monitor.hpp"
#include "system/model.hpp"

namespace isp::runtime {
namespace {

/// A three-line program with a known shape: storage scan (reducing),
/// device-friendly transform, tiny host-friendly finish.
ir::Program pipeline_program() {
  ir::Program program("pipeline", 16.0);
  ir::Dataset d;
  d.object.name = "file";
  d.object.location = mem::Location::Storage;
  d.object.virtual_bytes = gigabytes(2.0);
  d.object.physical.resize_elems<float>(
      static_cast<std::size_t>(2e9 / 16.0 / sizeof(float)));
  d.elem_bytes = sizeof(float);
  program.add_dataset(std::move(d));

  ir::CodeRegion scan;
  scan.name = "hits = filter(file)";
  scan.inputs = {"file"};
  scan.outputs = {"hits"};
  scan.elem_bytes = sizeof(float);
  scan.cost.cycles_per_elem = 4.0;
  scan.cost.jitter = 0.0;
  scan.chunks = 16;
  scan.kernel = [](ir::KernelCtx& ctx) {
    const auto in = ctx.input(0).physical.as<float>();
    auto& out = ctx.output(0);
    out.physical.resize_elems<float>(in.size() / 10);
    auto dst = out.physical.as<float>();
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = in[i] + 1.0F;
  };
  program.add_line(std::move(scan));

  ir::CodeRegion transform;
  transform.name = "scaled = scale(hits)";
  transform.inputs = {"hits"};
  transform.outputs = {"scaled"};
  transform.elem_bytes = sizeof(float);
  transform.cost.cycles_per_elem = 8.0;
  transform.cost.jitter = 0.0;
  transform.chunks = 16;
  transform.kernel = [](ir::KernelCtx& ctx) {
    const auto in = ctx.input(0).physical.as<float>();
    auto& out = ctx.output(0);
    out.physical.resize_elems<float>(in.size());
    auto dst = out.physical.as<float>();
    for (std::size_t i = 0; i < in.size(); ++i) dst[i] = in[i] * 2.0F;
  };
  program.add_line(std::move(transform));

  ir::CodeRegion finish;
  finish.name = "answer = sum(scaled)";
  finish.inputs = {"scaled"};
  finish.outputs = {"answer"};
  finish.elem_bytes = sizeof(float);
  finish.cost.cycles_per_elem = 1.0;
  finish.cost.jitter = 0.0;
  finish.chunks = 4;
  finish.kernel = [](ir::KernelCtx& ctx) {
    const auto in = ctx.input(0).physical.as<float>();
    double total = 0.0;
    for (const auto v : in) total += v;
    auto& out = ctx.output(0);
    out.physical.resize_elems<double>(1);
    out.physical.as<double>()[0] = total;
  };
  program.add_line(std::move(finish));
  return program;
}

EngineOptions quiet_options() {
  EngineOptions options;
  options.monitoring = false;
  options.migration = false;
  return options;
}

TEST(Engine, HostOnlyDecomposition) {
  system::SystemModel system;
  const auto program = pipeline_program();
  const auto plan = ir::Plan::host_only(3);
  const auto report = run_program(system, program, plan,
                                  codegen::ExecMode::NativeC, quiet_options());
  ASSERT_EQ(report.lines.size(), 3u);
  // Storage access: 2 GB at min(9, 5) GB/s = 0.4 s.
  EXPECT_NEAR(report.lines[0].access.value(), 0.4, 0.05);
  // Compute: 2e9/4 elems * 4 cycles / 3.6 GHz = 0.556 s.
  EXPECT_NEAR(report.lines[0].compute.value(), 0.556, 0.01);
  // Intermediates stay in host memory: no link transfer.
  EXPECT_DOUBLE_EQ(report.lines[1].transfer_in.value(), 0.0);
  EXPECT_EQ(report.csd_calls, 0u);
  EXPECT_EQ(report.migrations, 0u);
  EXPECT_EQ(report.status_updates, 0u);
  // End-to-end equals the last line's end.
  EXPECT_DOUBLE_EQ(report.total.value(), report.lines.back().end.seconds());
}

TEST(Engine, CsdRunReadsAtInternalBandwidth) {
  system::SystemModel system;
  const auto program = pipeline_program();
  ir::Plan plan = ir::Plan::host_only(3);
  plan.placement[0] = ir::Placement::Csd;
  plan.placement[1] = ir::Placement::Csd;
  const auto report = run_program(system, program, plan,
                                  codegen::ExecMode::NativeC, quiet_options());
  // 2 GB at 9 GB/s ~ 0.22 s — cheaper than the host's 0.4 s.
  EXPECT_NEAR(report.lines[0].access.value(), 0.223, 0.02);
  // Entering the CSD group submits exactly one call.
  EXPECT_EQ(report.csd_calls, 1u);
  // The host-placed finale pulls the intermediate over the link.
  EXPECT_GT(report.lines[2].transfer_in.value(), 0.0);
}

TEST(Engine, StorageChargedOnlyOnce) {
  system::SystemModel system;
  auto program = pipeline_program();
  // A second line that reads the same file again.
  ir::CodeRegion reread;
  reread.name = "again = rescan(file)";
  reread.inputs = {"file"};
  reread.outputs = {"again"};
  reread.elem_bytes = sizeof(float);
  reread.cost.cycles_per_elem = 1.0;
  reread.kernel = [](ir::KernelCtx& ctx) {
    auto& out = ctx.output(0);
    out.physical.resize_elems<float>(1);
    out.physical.as<float>()[0] = ctx.input(0).physical.as<float>()[0];
  };
  program.add_line(std::move(reread));

  const auto plan = ir::Plan::host_only(4);
  const auto report = run_program(system, program, plan,
                                  codegen::ExecMode::NativeC, quiet_options());
  EXPECT_GT(report.lines[0].access.value(), 0.3);
  EXPECT_DOUBLE_EQ(report.lines[3].access.value(), 0.0);  // cached copy
}

TEST(Engine, ExecModeOrdering) {
  const auto program = pipeline_program();
  const auto plan = ir::Plan::host_only(3);
  double previous = 0.0;
  for (const auto mode :
       {codegen::ExecMode::NativeC, codegen::ExecMode::CompiledNoCopy,
        codegen::ExecMode::Compiled, codegen::ExecMode::Interpreted}) {
    system::SystemModel system;
    const auto report =
        run_program(system, program, plan, mode, quiet_options());
    EXPECT_GT(report.total.value(), previous)
        << "mode " << codegen::to_string(mode);
    previous = report.total.value();
  }
}

TEST(Engine, TimingOnlyReplayMatchesFunctionalRun) {
  system::SystemModel system;
  const auto program = pipeline_program();
  const auto truth = plan::measure_true_estimates(system, program);

  ir::Plan plan = ir::Plan::host_only(3);
  plan.placement[0] = ir::Placement::Csd;
  plan.estimate = truth;

  auto functional = quiet_options();
  const auto real = run_program(system, program, plan,
                                codegen::ExecMode::NativeC, functional);

  // Timing-only replay: every output sized from the plan's estimate.
  ir::OutputSizes sizes;
  for (std::size_t i = 0; i < program.line_count(); ++i) {
    sizes.emplace_back(program.lines()[i].outputs.size(), truth[i].d_out);
  }
  auto replay_options = quiet_options();
  replay_options.output_sizes = &sizes;
  const auto replay = run_program(system, program, plan,
                                  codegen::ExecMode::NativeC, replay_options);
  EXPECT_NEAR(replay.total.value(), real.total.value(),
              real.total.value() * 0.01);
}

TEST(Engine, ContentionStretchesCsdCompute) {
  const auto program = pipeline_program();
  ir::Plan plan = ir::Plan::host_only(3);
  plan.placement[0] = ir::Placement::Csd;
  plan.placement[1] = ir::Placement::Csd;

  system::SystemModel full_system;
  const auto full = run_program(full_system, program, plan,
                                codegen::ExecMode::NativeC, quiet_options());

  auto throttled_options = quiet_options();
  throttled_options.cse_availability =
      sim::AvailabilitySchedule::constant(0.25);
  system::SystemModel slow_system;
  const auto slow = run_program(slow_system, program, plan,
                                codegen::ExecMode::NativeC, throttled_options);
  EXPECT_GT(slow.lines[0].compute.value(),
            3.0 * full.lines[0].compute.value());
}

TEST(Engine, StarvedCseIsAnError) {
  const auto program = pipeline_program();
  ir::Plan plan = ir::Plan::host_only(3);
  plan.placement[0] = ir::Placement::Csd;
  auto options = quiet_options();
  options.cse_availability = sim::AvailabilitySchedule::constant(0.0);
  system::SystemModel system;
  EXPECT_THROW(
      run_program(system, program, plan, codegen::ExecMode::NativeC, options),
      Error);
}

TEST(Engine, MigrationRescuesContendedRun) {
  system::SystemModel system;
  const auto program = pipeline_program();
  const auto truth = plan::measure_true_estimates(system, program);

  ir::Plan plan = ir::Plan::host_only(3);
  plan.placement[0] = ir::Placement::Csd;
  plan.placement[1] = ir::Placement::Csd;
  plan.estimate = truth;

  EngineOptions contended;
  contended.monitoring = true;
  contended.migration = true;
  contended.contention.enabled = true;
  contended.contention.at_csd_progress = 0.3;
  contended.contention.availability = 0.05;

  system::SystemModel with_system;
  const auto with_migration = run_program(
      with_system, program, plan, codegen::ExecMode::NativeC, contended);
  EXPECT_GE(with_migration.migrations, 1u);
  EXPECT_GT(with_migration.migration_overhead.value(), 0.0);
  EXPECT_GT(with_migration.status_updates, 0u);

  auto crippled = contended;
  crippled.migration = false;
  system::SystemModel without_system;
  const auto without_migration = run_program(
      without_system, program, plan, codegen::ExecMode::NativeC, crippled);
  EXPECT_EQ(without_migration.migrations, 0u);
  EXPECT_LT(with_migration.total.value(), without_migration.total.value());
}

TEST(Engine, MigrationPreservesFunctionalResult) {
  system::SystemModel system;
  const auto program = pipeline_program();
  const auto truth = plan::measure_true_estimates(system, program);

  const auto host_plan = ir::Plan::host_only(3);
  ir::ObjectStore host_store = program.make_store();
  run_program(system, program, host_plan, codegen::ExecMode::NativeC,
              quiet_options(), &host_store);
  const double expected = host_store.at("answer").physical.as<double>()[0];

  ir::Plan csd_plan = ir::Plan::host_only(3);
  csd_plan.placement[0] = ir::Placement::Csd;
  csd_plan.placement[1] = ir::Placement::Csd;
  csd_plan.estimate = truth;
  EngineOptions contended;
  contended.contention.enabled = true;
  contended.contention.at_csd_progress = 0.3;
  contended.contention.availability = 0.05;
  ir::ObjectStore csd_store = program.make_store();
  system::SystemModel other;
  const auto report = run_program(other, program, csd_plan,
                                  codegen::ExecMode::NativeC, contended,
                                  &csd_store);
  EXPECT_GE(report.migrations, 1u);
  EXPECT_DOUBLE_EQ(csd_store.at("answer").physical.as<double>()[0], expected);
  // After execution, the result lives in host memory.
  EXPECT_EQ(csd_store.at("answer").location, mem::Location::HostDram);
}

TEST(Lowering, GroupsContiguousCsdLines) {
  system::SystemModel system;
  const auto program = pipeline_program();
  ir::Plan plan = ir::Plan::host_only(3);
  plan.placement[0] = ir::Placement::Csd;
  plan.placement[1] = ir::Placement::Csd;
  const auto lowered =
      codegen::lower(program, plan, system.address_space(),
                     codegen::ExecMode::CompiledNoCopy);
  EXPECT_EQ(lowered.csd_group_count, 1u);
  EXPECT_TRUE(lowered.lines[0].enters_csd_group);
  EXPECT_FALSE(lowered.lines[1].enters_csd_group);
  EXPECT_TRUE(lowered.lines[0].status_updates);
  EXPECT_FALSE(lowered.lines[2].status_updates);
  EXPECT_EQ(lowered.csd_code_image.count(), 2u * 32u * 1024u);
  EXPECT_GT(lowered.compile_latency.value(), 0.0);
  EXPECT_FALSE(lowered.lines[0].marshalling);  // no-copy mode
}

TEST(Lowering, MarshallingFollowsMode) {
  system::SystemModel system;
  const auto program = pipeline_program();
  const auto plan = ir::Plan::host_only(3);
  const auto interp = codegen::lower(program, plan, system.address_space(),
                                     codegen::ExecMode::Interpreted);
  EXPECT_TRUE(interp.lines[0].marshalling);
  EXPECT_DOUBLE_EQ(interp.compile_latency.value(), 0.0);
  const auto native = codegen::lower(program, plan, system.address_space(),
                                     codegen::ExecMode::NativeC);
  EXPECT_FALSE(native.lines[0].marshalling);
}

TEST(MemoryPlan, PlacesNearConsumer) {
  system::SystemModel system;
  const auto program = pipeline_program();
  ir::Plan plan = ir::Plan::host_only(3);
  plan.placement[0] = ir::Placement::Csd;
  plan.placement[1] = ir::Placement::Csd;
  const auto memory =
      codegen::plan_memory(program, plan, system.address_space(),
                           codegen::ExecMode::CompiledNoCopy);
  // "hits" is consumed by a CSD line -> device DRAM; "scaled" by a host
  // line -> host DRAM.
  const auto* hits = memory.find("hits");
  const auto* scaled = memory.find("scaled");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(scaled, nullptr);
  EXPECT_EQ(hits->kind, mem::MemKind::DeviceDram);
  EXPECT_EQ(scaled->kind, mem::MemKind::HostDram);
  EXPECT_TRUE(hits->zero_copy);  // producer and consumer both on the CSD
  EXPECT_GT(memory.zero_copy_objects, 0u);
}

TEST(Monitor, DetectsRateBelowEstimate) {
  Monitor monitor(MonitorConfig{}, /*estimated_rate=*/1000.0);
  monitor.begin_line(1000.0);
  // Healthy windows at the estimated rate.
  EXPECT_FALSE(monitor.observe(SimTime{1.0}, 1000.0));
  EXPECT_FALSE(monitor.observe(SimTime{2.0}, 2000.0));
  // Rate collapses to 10% of the estimate.
  EXPECT_TRUE(monitor.observe(SimTime{12.0}, 3000.0));
  EXPECT_NEAR(monitor.observed_rate(), 100.0, 1.0);
}

TEST(Monitor, DetectsDecreasingTrend) {
  MonitorConfig config;
  config.below_estimate_fraction = 0.0;  // disable the absolute detector
  config.decreasing_windows = 3;
  Monitor monitor(config, 1000.0);
  monitor.begin_line(1000.0);
  monitor.observe(SimTime{1.0}, 1000.0);
  double t = 1.0;
  double instr = 1000.0;
  double rate = 900.0;
  bool anomaly = false;
  for (int i = 0; i < 4; ++i) {
    t += 1.0;
    instr += rate;
    anomaly = monitor.observe(SimTime{t}, instr);
    rate *= 0.8;
  }
  EXPECT_TRUE(anomaly);
}

TEST(Monitor, BeginLineResetsTrend) {
  MonitorConfig config;
  config.below_estimate_fraction = 0.0;
  config.decreasing_windows = 2;
  Monitor monitor(config, 1000.0);
  monitor.begin_line(1000.0);
  monitor.observe(SimTime{1.0}, 1000.0);
  monitor.observe(SimTime{2.0}, 1800.0);  // decreasing once
  monitor.begin_line(500.0);              // new line: streak resets
  monitor.observe(SimTime{3.0}, 2300.0);
  EXPECT_FALSE(monitor.observe(SimTime{4.0}, 2800.0));
}

TEST(Monitor, AdvisesMigrationOnlyWhenCheaper) {
  Monitor monitor(MonitorConfig{}, 1000.0);
  monitor.begin_line(1000.0);
  monitor.observe(SimTime{1.0}, 100.0);
  monitor.observe(SimTime{2.0}, 150.0);  // 50 instr/s << 800
  ASSERT_TRUE(monitor.anomaly());
  // Remaining 1000 instructions at 50/s = 20 s on the CSD.
  const auto go = monitor.advise(1000.0, Seconds{2.0}, Seconds{1.0},
                                 Seconds{0.05});
  EXPECT_TRUE(go.migrate);
  EXPECT_NEAR(go.remaining_on_csd.value(), 20.0, 0.1);
  const auto stay = monitor.advise(1000.0, Seconds{50.0}, Seconds{1.0},
                                   Seconds{0.05});
  EXPECT_FALSE(stay.migrate);
}

TEST(Monitor, HighPriorityRequestForcesAnomaly) {
  Monitor monitor(MonitorConfig{}, 1000.0);
  EXPECT_FALSE(monitor.anomaly());
  monitor.raise_high_priority();
  EXPECT_TRUE(monitor.anomaly());
}

TEST(Monitor, IgnoresSubWindowUpdates) {
  MonitorConfig config;
  config.min_window = Seconds{1.0};
  Monitor monitor(config, 1000.0);
  monitor.begin_line(1000.0);
  monitor.observe(SimTime{1.0}, 1000.0);
  // A microsecond-scale window with terrible rate must not trigger.
  EXPECT_FALSE(monitor.observe(SimTime{1.000001}, 1000.001));
}

}  // namespace
}  // namespace isp::runtime
