// activecpp_cli — run any registered workload under any configuration.
//
//   $ ./examples/activecpp_cli --app tpch-q6
//   $ ./examples/activecpp_cli --app kmeans --availability 0.5
//         --contention 0.1 --no-migration --json          (one line)
//   $ ./examples/activecpp_cli --app pagerank --trace /tmp/pagerank.json
//   $ ./examples/activecpp_cli --list
//
// Flags:
//   --app NAME           workload (see --list)
//   --mode MODE          nativec | interpreted | compiled | nocopy (default)
//   --availability F     constant CSE availability in (0, 1]
//   --contention F       drop CSE availability to F at 50% ISP progress
//   --host-availability F  constant host availability in (0, 1]
//   --no-migration       disable the migration machinery
//   --no-monitoring      disable status updates + the monitor
//   --static             run the exhaustive programmer-directed plan instead
//   --baseline           run host-only (no ISP) in the chosen mode
//   --nvmeof             attach the CSD over NVMe-oF/RDMA instead of PCIe
//   --size-factor F      scale the Table-I dataset (default 1.0)
//   --seed N             dataset seed
//   --fault-rate F       inject faults at every device-stack point-fault
//                        site with probability F per opportunity (0 = off,
//                        bit-for-bit identical to a run without the fault
//                        layer)
//   --fault-seed N       seed of the deterministic fault schedule
//   --power-loss-rate F  whole-device power cut with probability F per event
//                        boundary; the device recovers (NVMe reset, FTL
//                        journal/checkpoint remount) and the run completes
//                        with host-identical output
//   --crash-at N         deterministic single power loss at the N-th event
//                        boundary (the crash-point sweep's knob)
//   --json               print the execution report as JSON
//   --trace PATH         write a chrome://tracing timeline
//   --list               list registered workloads and exit
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "baseline/baselines.hpp"
#include "exec/cli.hpp"
#include "runtime/active_runtime.hpp"
#include "runtime/trace.hpp"

namespace {

struct CliOptions {
  std::string app = "tpch-q6";
  isp::codegen::ExecMode mode = isp::codegen::ExecMode::CompiledNoCopy;
  double availability = 1.0;
  double contention = 0.0;  // 0 = disabled
  double host_availability = 1.0;
  bool migration = true;
  bool monitoring = true;
  bool run_static = false;
  bool run_baseline = false;
  bool nvmeof = false;
  double size_factor = 1.0;
  std::uint64_t seed = 42;
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 0;
  double power_loss_rate = 0.0;
  std::int64_t crash_at = -1;  // -1 = disabled
  bool json = false;
  std::string trace_path;
};

[[noreturn]] void list_apps() {
  std::printf("registered workloads:\n");
  for (const auto& app : isp::apps::all_apps()) {
    std::printf("  %-14s %5.1f GB  %s\n", app.name.c_str(),
                app.table1_bytes.as_double() / 1e9, app.description.c_str());
  }
  std::exit(0);
}

/// Strict parsing through exec/cli: an unknown flag, a value on a boolean
/// flag, a word that is no flag's value, or a malformed, missing or
/// out-of-range value exits with status 2.
CliOptions parse(int argc, char** argv) {
  using namespace isp::exec;
  const std::vector<const char*> valued = {
      "--app", "--mode", "--availability", "--contention",
      "--host-availability", "--size-factor", "--seed", "--fault-rate",
      "--fault-seed", "--power-loss-rate", "--crash-at", "--trace"};
  reject_unknown_flags(argc, argv, valued,
                       {"--no-migration", "--no-monitoring", "--static",
                        "--baseline", "--nvmeof", "--json", "--list"});
  if (flag_present(argc, argv, "--list")) list_apps();
  constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
  CliOptions options;
  options.app = string_flag(argc, argv, "--app", options.app.c_str());
  constexpr isp::codegen::ExecMode kModes[] = {
      isp::codegen::ExecMode::NativeC, isp::codegen::ExecMode::Interpreted,
      isp::codegen::ExecMode::Compiled,
      isp::codegen::ExecMode::CompiledNoCopy};
  options.mode = kModes[enum_flag(
      argc, argv, "--mode", {"nativec", "interpreted", "compiled", "nocopy"},
      /*nocopy*/ 3)];
  options.availability = double_flag(argc, argv, "--availability",
                                     options.availability, 1e-6, 1.0);
  options.contention = double_flag(argc, argv, "--contention",
                                   options.contention, 0.0, 1.0);
  options.host_availability = double_flag(
      argc, argv, "--host-availability", options.host_availability, 1e-6, 1.0);
  options.migration = !flag_present(argc, argv, "--no-migration");
  options.monitoring = !flag_present(argc, argv, "--no-monitoring");
  options.run_static = flag_present(argc, argv, "--static");
  options.run_baseline = flag_present(argc, argv, "--baseline");
  options.nvmeof = flag_present(argc, argv, "--nvmeof");
  options.size_factor =
      double_flag(argc, argv, "--size-factor", options.size_factor,
                  std::numeric_limits<double>::denorm_min(),
                  std::numeric_limits<double>::max());
  options.seed = u64_flag(argc, argv, "--seed", options.seed, 0, kMaxU64);
  options.fault_rate = double_flag(argc, argv, "--fault-rate",
                                   options.fault_rate, 0.0, 1.0);
  options.fault_seed = u64_flag(argc, argv, "--fault-seed",
                                options.fault_seed, 0, kMaxU64);
  options.power_loss_rate = double_flag(argc, argv, "--power-loss-rate",
                                        options.power_loss_rate, 0.0, 1.0);
  if (string_flag(argc, argv, "--crash-at", nullptr) != nullptr) {
    options.crash_at = static_cast<std::int64_t>(u64_flag(
        argc, argv, "--crash-at", 0, 0,
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())));
  }
  options.json = flag_present(argc, argv, "--json");
  options.trace_path = string_flag(argc, argv, "--trace", "");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace isp;
  const CliOptions options = parse(argc, argv);

  apps::AppConfig app_config;
  app_config.size_factor = options.size_factor;
  app_config.seed = options.seed;
  const auto program = apps::make_app(options.app, app_config);

  const auto sys_config = options.nvmeof
                              ? system::SystemConfig::paper_platform_nvmeof()
                              : system::SystemConfig::paper_platform();
  system::SystemModel system(sys_config);

  runtime::ExecutionReport report;
  if (options.run_baseline) {
    report = baseline::run_host_only(system, program, options.mode);
  } else if (options.run_static) {
    const auto oracle = baseline::programmer_directed_plan(system, program);
    runtime::ContentionTrigger trigger;
    if (options.contention > 0.0) {
      trigger.enabled = true;
      trigger.availability = options.contention;
    }
    report = baseline::run_static_isp(
        system, program, oracle.best,
        sim::AvailabilitySchedule::constant(options.availability), trigger);
  } else {
    runtime::RunConfig rc;
    rc.mode = options.mode;
    rc.engine.migration = options.migration;
    rc.engine.monitoring = options.monitoring;
    rc.engine.fault.seed = options.fault_seed;
    rc.engine.fault.set_rate_all(options.fault_rate);
    if (options.crash_at >= 0) {
      // One deterministic power loss at exactly the N-th event boundary.
      auto& site = rc.engine.fault.sites[static_cast<std::size_t>(
          fault::Site::PowerLoss)];
      site.rate = 1.0;
      site.skip_first = static_cast<std::uint64_t>(options.crash_at);
      site.max_faults = 1;
    } else if (options.power_loss_rate > 0.0) {
      rc.engine.fault.set_rate(fault::Site::PowerLoss,
                               options.power_loss_rate);
    }
    rc.engine.cse_availability =
        sim::AvailabilitySchedule::constant(options.availability);
    rc.engine.host_availability =
        sim::AvailabilitySchedule::constant(options.host_availability);
    if (options.contention > 0.0) {
      rc.engine.contention.enabled = true;
      rc.engine.contention.at_csd_progress = 0.5;
      rc.engine.contention.availability = options.contention;
    }
    runtime::ActiveRuntime active(system);
    const auto result = active.run(program, rc);
    report = result.report;
    if (!options.json) {
      std::printf("plan: ");
      for (const auto p : result.plan.placement) {
        std::printf("%c", p == ir::Placement::Csd ? 'C' : 'h');
      }
      std::printf("  (sampling %.3f s, device factor %.2f)\n",
                  result.sampling_overhead.value(), result.device_factor);
    }
  }

  if (options.json) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::printf("%s", report.to_string().c_str());
  }
  if (!options.trace_path.empty()) {
    runtime::write_chrome_trace(report, options.trace_path);
    std::fprintf(stderr, "trace written to %s\n",
                 options.trace_path.c_str());
  }
  return 0;
}
