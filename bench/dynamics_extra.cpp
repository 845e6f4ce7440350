// System-dynamics ablations beyond Figures 2/5 (DESIGN.md extensions).
//
// §II-B(3) names three sources of dynamics that break static ISP plans:
//   (1) resource contention from other applications — on the CSD (Figures
//       2/5) but also on the HOST, which cuts the other way: a busy host
//       makes offload *more* attractive;
//   (2) contention from storage-management workloads — the FTL's garbage
//       collection stealing internal bandwidth;
//   (3) the change of input datasets itself — here, a dataset grown past the
//       CSE's cache-friendly regime, stalling the in-order cores below the
//       instruction rate the sampling phase projected.
// Plus the §III-C(a) attachment ablation: PCIe/BAR versus NVMe-oF/RDMA.
#include <cstdio>

#include "apps/registry.hpp"
#include "baseline/baselines.hpp"
#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "flash/ftl.hpp"
#include "runtime/active_runtime.hpp"

namespace {

using namespace isp;

void host_contention_section() {
  bench::print_header(
      "Dynamic 1b: host-side contention (tpch-q6; CSD fully available)");
  std::printf("%-12s %12s %12s %10s\n", "host avail", "baseline", "activecpp",
              "speedup");
  bench::print_rule();
  for (const double avail : {1.0, 0.75, 0.5, 0.25}) {
    apps::AppConfig config;
    const auto program = apps::make_app("tpch-q6", config);

    runtime::EngineOptions host_busy;
    host_busy.monitoring = false;
    host_busy.migration = false;
    host_busy.host_availability = sim::AvailabilitySchedule::constant(avail);

    system::SystemModel base_system;
    const auto plan = ir::Plan::host_only(program.line_count());
    const auto baseline =
        runtime::run_program(base_system, program, plan,
                             codegen::ExecMode::NativeC, host_busy);

    system::SystemModel system;
    runtime::RunConfig rc;
    rc.engine.host_availability = sim::AvailabilitySchedule::constant(avail);
    runtime::ActiveRuntime active(system);
    const auto result = active.run(program, rc);

    std::printf("%11.0f%% %11.2fs %11.2fs %9.2fx\n", avail * 100.0,
                baseline.total.value(), result.end_to_end().value(),
                baseline.total.value() / result.end_to_end().value());
  }
  std::printf(
      "expected: offload pays MORE as the host loses cycles — the CSD-side\n"
      "portion is immune to host contention.\n");
}

void gc_contention_section() {
  bench::print_header(
      "Dynamic 2: storage-management (GC) contention on internal bandwidth");
  // Drive a small FTL through co-tenant overwrite churn and measure the
  // fraction of array bandwidth GC consumes at steady state.
  flash::FtlConfig ftl_config;
  ftl_config.geometry.channels = 2;
  ftl_config.geometry.dies_per_channel = 2;
  ftl_config.geometry.blocks_per_die = 64;
  ftl_config.geometry.pages_per_block = 64;
  ftl_config.overprovision = 0.1;
  flash::Ftl ftl(ftl_config);
  Rng rng(3);
  for (int i = 0; i < 200000; ++i) {
    ftl.write_span(rng.uniform_u64(0, ftl.logical_pages() - 1), 1);
  }
  const double pressure = ftl.gc_pressure();
  std::printf(
      "steady-state overwrite churn: write amplification %.2f, GC consumes "
      "%.0f%% of\ninternal bandwidth\n\n",
      ftl.stats().write_amplification(), pressure * 100.0);

  std::printf("%-14s %12s %12s %10s\n", "gc pressure", "baseline",
              "static ISP", "speedup");
  bench::print_rule();
  for (const double p : {0.0, pressure / 2.0, pressure, 0.6}) {
    apps::AppConfig config;
    const auto program = apps::make_app("tpch-q6", config);
    system::SystemModel system;
    system.csd_device().flash_array().set_availability(
        sim::AvailabilitySchedule::constant(1.0 - p));
    const auto baseline = baseline::run_host_only(system, program);
    const auto oracle = baseline::programmer_directed_plan(system, program);
    const auto isp_run = baseline::run_static_isp(
        system, program, oracle.best, sim::AvailabilitySchedule::constant(1.0));
    std::printf("%13.0f%% %11.2fs %11.2fs %9.2fx\n", p * 100.0,
                baseline.total.value(), isp_run.total.value(),
                baseline.total.value() / isp_run.total.value());
  }
  std::printf(
      "expected: GC erodes the 9-vs-5 GB/s bandwidth advantage that funds "
      "ISP.\n");
}

void input_change_section() {
  bench::print_header(
      "Dynamic 3: input change — working set outgrows the CSE caches");
  // The dataset the sampling phase profiled behaved; at raw scale the scan's
  // working set blows the device caches, and the in-order CSE cores stall to
  // a third of the projected instruction rate.  Stalls burn time without
  // retiring instructions, so the monitor sees the rate collapse.
  apps::AppConfig config;
  auto program = apps::make_app("tpch-q6", config);
  auto& scan = program.line_mut(0);
  scan.cost.csd_stall_knee_elems =
      scan.elems_for(program.total_storage_bytes()) / 2.0;
  scan.cost.csd_stall_multiplier = 3.0;

  system::SystemModel base_system;
  const auto baseline = baseline::run_host_only(base_system, program);

  std::printf("%-22s %12s %10s %10s\n", "configuration", "end-to-end",
              "speedup", "migrated");
  bench::print_rule();

  runtime::RunConfig rc;  // monitoring + migration on by default
  {
    system::SystemModel system;
    runtime::ActiveRuntime active(system);
    const auto result = active.run(program, rc);
    std::printf("%-22s %11.2fs %9.2fx %10s\n", "activecpp (full)",
                result.end_to_end().value(),
                baseline.total.value() / result.end_to_end().value(),
                result.report.migrations > 0 ? "yes" : "no");
  }
  {
    system::SystemModel system;
    auto no_mig = rc;
    no_mig.engine.migration = false;
    runtime::ActiveRuntime active(system);
    const auto result = active.run(program, no_mig);
    std::printf("%-22s %11.2fs %9.2fx %10s\n", "activecpp w/o migration",
                result.end_to_end().value(),
                baseline.total.value() / result.end_to_end().value(), "no");
  }
  std::printf("no-CSD baseline: %.2f s\n", baseline.total.value());
  std::printf(
      "expected: the stale plan stalls on the CSD; only the monitor+migration\n"
      "path recovers to roughly baseline performance.\n");
}

void attachment_section() {
  bench::print_header(
      "Attachment ablation (§III-C(a)): PCIe/BAR vs NVMe-oF/RDMA");
  std::printf("%-12s %12s %12s %10s\n", "attachment", "baseline", "activecpp",
              "speedup");
  bench::print_rule();
  for (const bool fabric : {false, true}) {
    const auto sys_config = fabric
                                ? system::SystemConfig::paper_platform_nvmeof()
                                : system::SystemConfig::paper_platform();
    apps::AppConfig config;
    const auto program = apps::make_app("tpch-q6", config);
    system::SystemModel base_system(sys_config);
    const auto baseline = baseline::run_host_only(base_system, program);
    system::SystemModel system(sys_config);
    runtime::ActiveRuntime active(system);
    const auto result = active.run(program);
    std::printf("%-12s %11.2fs %11.2fs %9.2fx\n",
                fabric ? "nvme-of" : "pcie", baseline.total.value(),
                result.end_to_end().value(),
                baseline.total.value() / result.end_to_end().value());
  }
  std::printf(
      "expected: near-identical — ISP economics depend on bandwidths, not "
      "the mapping\nmechanism; the fabric adds only microseconds per "
      "command.\n");
}

}  // namespace

int main() {
  host_contention_section();
  gc_contention_section();
  input_change_section();
  attachment_section();
  return 0;
}
