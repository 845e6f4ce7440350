// Unit tests: the execution engine, monitor, codegen/lowering and exec-mode
// overheads.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "baseline/baselines.hpp"
#include "codegen/lowering.hpp"
#include "common/digest.hpp"
#include "recovery/recovery.hpp"
#include "runtime/active_runtime.hpp"
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


// --- Golden engine runs ---------------------------------------------------
//
// Exact digests of whole engine runs on the branches ChromeTrace.GoldenDigest
// (kmeans with contention, StatusLoss and ECC) does not reach.  Every
// Seconds/SimTime folds in by its bit pattern, because report.to_json()
// prints only 12 digits; the record, DMA stats, storage deltas, output
// sizes and the store's output payloads fold in as well.  A refactor of the
// engine must leave every constant here unchanged.

/// Storage scan on the CSD whose side product is a program result, a
/// compute-heavy CSD transform that persists its output, and a host finish
/// that persists the answer.  Payloads are 1/1024 of the virtual volumes.
ir::Program golden_program() {
  ir::Program program("golden", 1024.0);
  ir::Dataset d;
  d.object.name = "file";
  d.object.location = mem::Location::Storage;
  d.object.virtual_bytes = gigabytes(2.0);
  d.object.physical.resize_elems<float>(
      static_cast<std::size_t>(2e9 / 1024.0 / sizeof(float)));
  auto file = d.object.physical.as<float>();
  for (std::size_t i = 0; i < file.size(); ++i) {
    file[i] = static_cast<float>(i % 97) * 0.5F;
  }
  d.elem_bytes = sizeof(float);
  program.add_dataset(std::move(d));

  ir::CodeRegion scan;
  scan.name = "hits, side = filter(file)";
  scan.inputs = {"file"};
  scan.outputs = {"hits", "side"};
  scan.elem_bytes = sizeof(float);
  scan.cost.cycles_per_elem = 4.0;
  scan.cost.jitter = 0.0;
  scan.chunks = 16;
  scan.kernel = [](ir::KernelCtx& ctx) {
    const auto in = ctx.input(0).physical.as<float>();
    auto& hits = ctx.output(0);
    hits.physical.resize_elems<float>(in.size() / 10);
    auto dst = hits.physical.as<float>();
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = in[i * 10] + 1.0F;
    auto& side = ctx.output(1);
    side.physical.resize_elems<float>(in.size() / 100);
    auto tail = side.physical.as<float>();
    for (std::size_t i = 0; i < tail.size(); ++i) tail[i] = in[i] * 3.0F;
  };
  program.add_line(std::move(scan));

  ir::CodeRegion transform;
  transform.name = "scaled = scale(hits)";
  transform.inputs = {"hits"};
  transform.outputs = {"scaled"};
  transform.elem_bytes = sizeof(float);
  transform.cost.cycles_per_elem = 200.0;
  transform.cost.jitter = 0.0;
  transform.chunks = 16;
  transform.writes_storage = true;
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
  finish.writes_storage = true;
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

/// Scan and transform on the CSD, finish on the host, with the true
/// estimates so the monitor runs.
ir::Plan golden_plan(const ir::Program& program) {
  system::SystemModel system;
  ir::Plan plan = ir::Plan::host_only(program.line_count());
  plan.placement[0] = ir::Placement::Csd;
  plan.placement[1] = ir::Placement::Csd;
  plan.estimate = plan::measure_true_estimates(system, program);
  return plan;
}

std::uint64_t fold(std::uint64_t h, Seconds s) {
  return fnv1a(h, double_bits(s.value()));
}
std::uint64_t fold(std::uint64_t h, SimTime t) {
  return fnv1a(h, double_bits(t.seconds()));
}
std::uint64_t fold(std::uint64_t h, Bytes b) { return fnv1a(h, b.count()); }

/// Every number a run reports, exactly, plus the store's output payloads.
std::uint64_t run_digest(const ExecutionReport& r, const ir::Program& program,
                         const ir::ObjectStore& store) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, r.program);
  h = fold(h, r.total);
  h = fold(h, r.compile_overhead);
  h = fnv1a(h, r.lines.size());
  for (const auto& l : r.lines) {
    h = fnv1a(h, l.index);
    h = fnv1a(h, l.name);
    h = fnv1a(h, static_cast<std::uint64_t>(l.placement));
    h = fold(h, l.start);
    h = fold(h, l.end);
    h = fold(h, l.compute);
    h = fold(h, l.access);
    h = fold(h, l.transfer_in);
    h = fold(h, l.marshal);
    h = fold(h, l.overhead);
    h = fold(h, l.in_bytes);
    h = fold(h, l.out_bytes);
    h = fold(h, l.storage_bytes);
    h = fnv1a(h, double_bits(l.observed_rate));
    h = fnv1a(h, l.faults);
    h = fold(h, l.fault_penalty);
  }
  h = fnv1a(h, r.migrations);
  h = fold(h, r.migration_overhead);
  h = fnv1a(h, r.status_updates);
  h = fnv1a(h, r.csd_calls);
  h = fnv1a(h, r.power_losses);
  h = fold(h, r.recovery_overhead);
  for (std::size_t k = 0; k < r.dma.bytes.size(); ++k) {
    h = fold(h, r.dma.bytes[k]);
    h = fnv1a(h, r.dma.transfers[k]);
  }
  h = fnv1a(h, static_cast<std::uint64_t>(r.storage.driven));
  h = fnv1a(h, static_cast<std::uint64_t>(r.storage.backend));
  h = fnv1a(h, r.storage.host_pages);
  h = fnv1a(h, r.storage.reclaim_pages);
  h = fnv1a(h, r.storage.meta_pages);
  h = fnv1a(h, r.storage.resets);
  h = fnv1a(h, r.storage.reclaim_events);
  h = fnv1a(h, double_bits(r.storage.write_amplification));
  h = fold(h, r.storage.reclaim_time);
  for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
    h = fnv1a(h, r.faults.injected[s]);
    h = fnv1a(h, r.faults.recovered[s]);
    h = fnv1a(h, r.faults.exhausted[s]);
  }
  h = fold(h, r.faults.penalty);
  h = fnv1a(h, r.faults.degradations);
  h = fnv1a(h, r.fault_records.size());
  for (const auto& f : r.fault_records) {
    h = fnv1a(h, static_cast<std::uint64_t>(f.site));
    h = fold(h, f.time);
    h = fnv1a(h, f.faults);
    h = fnv1a(h, static_cast<std::uint64_t>(f.exhausted));
    h = fold(h, f.penalty);
  }
  for (const auto& line : r.output_sizes) {
    h = fnv1a(h, line.size());
    for (const auto b : line) h = fold(h, b);
  }
  return fnv1a(h, recovery::digest_outputs(program, store));
}

struct GoldenRun {
  ExecutionReport report;
  std::uint64_t digest = 0;
};

GoldenRun golden_run(const ir::Program& program, const ir::Plan& plan,
                     const EngineOptions& options,
                     flash::BackendKind backend = flash::BackendKind::Ftl) {
  auto config = system::SystemConfig::paper_platform();
  config.csd.backend = backend;
  system::SystemModel system(config);
  ir::ObjectStore store = options.output_sizes == nullptr
                              ? program.make_store()
                              : program.make_metadata_store();
  GoldenRun run;
  run.report = run_program(system, program, plan,
                           codegen::ExecMode::CompiledNoCopy, options, &store);
  run.digest = run_digest(run.report, program, store);
  return run;
}

/// PowerLoss fires exactly once, at opportunity `at` (0 is line 0's start).
EngineOptions one_power_loss(std::uint64_t at) {
  EngineOptions options;
  options.drive_storage = true;
  options.fault.seed = 11;
  options.fault.set_rate(fault::Site::PowerLoss, 1.0);
  auto& site =
      options.fault.sites[static_cast<std::size_t>(fault::Site::PowerLoss)];
  site.skip_first = at;
  site.max_faults = 1;
  return options;
}

TEST(EngineGolden, PowerLossOnDrivenStorage) {
  // PowerLoss opportunities: line 0's start (0), its 16 chunk boundaries
  // (1-16), line 1's start (17), its chunks (18-33), line 2's start (34).
  // Line 1's start crashes with line 0's products in device DRAM; chunk 7
  // of line 1 crashes mid-line, resuming from the status stream when
  // updates are on and from the top when they are off.
  const auto program = golden_program();
  const auto plan = golden_plan(program);
  struct Case {
    const char* name;
    flash::BackendKind backend;
    bool monitoring;
    std::uint64_t at;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"ftl line-start status", flash::BackendKind::Ftl, true, 17,
       0xf82ce5e07f26d68fULL},
      {"ftl mid-chunk status", flash::BackendKind::Ftl, true, 25,
       0x25c68e2b233024caULL},
      {"ftl line-start no-status", flash::BackendKind::Ftl, false, 17,
       0xec3c4f305886a6d3ULL},
      {"ftl mid-chunk no-status", flash::BackendKind::Ftl, false, 25,
       0x1aad8b8ef15f6f89ULL},
      {"zns line-start status", flash::BackendKind::Zns, true, 17,
       0x6f1b67647de07676ULL},
      {"zns mid-chunk status", flash::BackendKind::Zns, true, 25,
       0x41f74ac6eb8324c3ULL},
      {"zns line-start no-status", flash::BackendKind::Zns, false, 17,
       0x0fe356d9da7f16b1ULL},
      {"zns mid-chunk no-status", flash::BackendKind::Zns, false, 25,
       0xbe8b59fce52abee0ULL},
  };
  for (const auto& c : cases) {
    auto options = one_power_loss(c.at);
    options.monitoring = c.monitoring;
    const auto run = golden_run(program, plan, options, c.backend);
    EXPECT_EQ(run.report.power_losses, 1u) << c.name;
    EXPECT_TRUE(run.report.storage.driven) << c.name;
    EXPECT_GT(run.report.storage.reclaim_time.value(), 0.0) << c.name;
    EXPECT_GT(run.report.recovery_overhead.value(), 0.0) << c.name;
    EXPECT_EQ(run.digest, c.digest)
        << c.name << ": 0x" << std::hex << run.digest;
  }
}

TEST(EngineGolden, CseCrashExhaustionDegradesLineToHost) {
  // The sixth CSE chunk attempt faults on every retry: the line gives up
  // on the device at that chunk and the host resumes the rest.
  const auto program = golden_program();
  const auto plan = golden_plan(program);
  EngineOptions options;
  options.fault.seed = 5;
  options.fault.set_rate(fault::Site::CseCrash, 1.0);
  auto& site =
      options.fault.sites[static_cast<std::size_t>(fault::Site::CseCrash)];
  site.skip_first = 5;
  site.max_faults = options.fault.retry.max_attempts;
  const auto run = golden_run(program, plan, options);
  EXPECT_EQ(run.report.faults.degradations, 1u);
  EXPECT_EQ(run.report.migrations, 1u);
  EXPECT_EQ(run.report.lines[0].placement, ir::Placement::Host);
  EXPECT_EQ(run.digest, 0x485bdcc3907bdc10ULL)
      << "0x" << std::hex << run.digest;
}

TEST(EngineGolden, RepeatedPowerLossDegradesLineToHost) {
  // Four power cuts on consecutive chunk boundaries of line 0, without a
  // status stream: the retry budget runs out and the line degrades.
  const auto program = golden_program();
  const auto plan = golden_plan(program);
  auto options = one_power_loss(3);
  options.monitoring = false;
  options.fault.sites[static_cast<std::size_t>(fault::Site::PowerLoss)]
      .max_faults = options.fault.retry.max_attempts;
  const auto run = golden_run(program, plan, options);
  EXPECT_EQ(run.report.power_losses, options.fault.retry.max_attempts);
  EXPECT_EQ(run.report.faults.degradations, 1u);
  EXPECT_EQ(run.report.lines[0].placement, ir::Placement::Host);
  EXPECT_EQ(run.digest, 0xcace517788897e55ULL)
      << "0x" << std::hex << run.digest;
}

TEST(EngineGolden, BetweenLinesMigrationBringsBarRemoteResultsHome) {
  // The CSE collapses exactly when line 0's last chunk completes (16 of 32
  // planned CSD chunks): the device's high-priority request makes the
  // monitor migrate between lines.  Line 0's products stay in device DRAM
  // behind the BAR; "side" is a program result, so it reaches the host at
  // the end of the run at the BAR penalty.
  const auto program = golden_program();
  const auto plan = golden_plan(program);
  EngineOptions options;
  options.contention.enabled = true;
  options.contention.at_csd_progress = 0.5;
  options.contention.availability = 0.05;
  auto config = system::SystemConfig::paper_platform();
  system::SystemModel system(config);
  ir::ObjectStore store = program.make_store();
  const auto report = run_program(system, program, plan,
                                  codegen::ExecMode::CompiledNoCopy, options,
                                  &store);
  EXPECT_EQ(report.migrations, 1u);
  EXPECT_EQ(report.lines[0].placement, ir::Placement::Csd);
  EXPECT_EQ(report.lines[1].placement, ir::Placement::Host);
  EXPECT_EQ(report.lines[0].end, report.lines[1].start);
  EXPECT_GT(report.lines[1].transfer_in.value(), 0.0);  // "hits" via the BAR
  EXPECT_EQ(store.at("side").location, mem::Location::HostDram);
  EXPECT_FALSE(store.at("side").bar_remote);
  const auto digest = run_digest(report, program, store);
  EXPECT_EQ(digest, 0xd618ba628797d952ULL)
      << "0x" << std::hex << digest;
}

TEST(EngineGolden, BreakNowMigrationUnderLinkAndFlashFaults) {
  // The CSE collapses a quarter of the way into line 0 while DMA transfers
  // stall and flash reads hit ECC errors: the line breaks at a chunk
  // boundary and every link move takes the slower of the analytic and DMA
  // paths.
  const auto program = golden_program();
  const auto plan = golden_plan(program);
  EngineOptions options;
  options.contention.enabled = true;
  options.contention.at_csd_progress = 0.125;
  options.contention.availability = 0.05;
  options.fault.seed = 3;
  options.fault.set_rate(fault::Site::DmaTransfer, 0.3);
  options.fault.set_rate(fault::Site::FlashReadEcc, 0.3);
  const auto run = golden_run(program, plan, options);
  EXPECT_EQ(run.report.migrations, 1u);
  EXPECT_EQ(run.report.lines[0].placement, ir::Placement::Host);
  EXPECT_GT(run.report.faults.total_injected(), 0u);
  EXPECT_EQ(run.digest, 0x26e47c1c535e7c79ULL)
      << "0x" << std::hex << run.digest;
}

TEST(EngineGolden, ReplayOfRecordedSizesAndKernelLessLine) {
  // A driven, power-cut run replayed from its recorded output sizes, on a
  // program whose last line has no kernel and sizes its output from the
  // plan's estimate.
  auto program = golden_program();
  const auto plan = golden_plan(program);
  program.line_mut(2).kernel = nullptr;
  const auto options = one_power_loss(20);
  const auto kernels = golden_run(program, plan, options);
  EXPECT_EQ(kernels.report.power_losses, 1u);
  auto replay_options = options;
  replay_options.output_sizes = &kernels.report.output_sizes;
  const auto replay = golden_run(program, plan, replay_options);
  EXPECT_EQ(replay.report.to_json(), kernels.report.to_json());
  EXPECT_EQ(replay.report.output_sizes, kernels.report.output_sizes);
  EXPECT_EQ(kernels.digest, 0xc16ab60932877b03ULL)
      << "0x" << std::hex << kernels.digest;
  EXPECT_EQ(replay.digest, 0x8a6de512f2a27c6fULL)
      << "0x" << std::hex << replay.digest;
}

/// The message of the isp::Error `run` throws, or "" if it throws none.
template <class Run>
std::string error_of(Run run) {
  try {
    run();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Engine, KernelLessLineWithoutEstimatesIsRejected) {
  // A line without a kernel sizes its outputs from the plan's estimates.
  // Under a plan that carries none (the host-only baseline, and the
  // sampler's host-only runs inside ActiveRuntime::run) the run is refused
  // up front, naming the line.
  ir::Program program("kernel-less", 1024.0);
  ir::Dataset d;
  d.object.name = "file";
  d.object.location = mem::Location::Storage;
  d.object.virtual_bytes = gigabytes(0.064);
  d.object.physical.resize_elems<float>(16 * 1024);
  d.elem_bytes = sizeof(float);
  program.add_dataset(std::move(d));
  ir::CodeRegion line;
  line.name = "summary = model(file)";
  line.inputs = {"file"};
  line.outputs = {"summary"};
  line.elem_bytes = sizeof(float);
  program.add_line(std::move(line));

  system::SystemModel system;
  EXPECT_NE(error_of([&] { (void)baseline::run_host_only(system, program); })
                .find("summary = model(file)"),
            std::string::npos);
  ActiveRuntime active(system);
  EXPECT_NE(error_of([&] { (void)active.run(program); })
                .find("summary = model(file)"),
            std::string::npos);
}

}  // namespace
}  // namespace isp::runtime
