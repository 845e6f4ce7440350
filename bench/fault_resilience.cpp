// Fault resilience: fault rate vs slowdown, and graceful degradation.
//
// Sweeps the deterministic fault injector (src/fault) across every
// device-stack site simultaneously — NVMe command drops, flash ECC/program
// faults, DMA stalls, CSE crashes, status-update loss — and measures the
// end-to-end cost of the recovery ladder (retry with backoff, escalation,
// migration back to the host).
//
// Two checks gate the run:
//   1. rate 0 is free: an all-zero fault config reproduces the fault-free
//      total bit-for-bit (the injector is never even constructed);
//   2. rate 1.0 degrades gracefully: with every opportunity faulting, the
//      CSE cannot hold any line, the runtime pulls the work back to the
//      host, and the total lands at (not far above) the no-ISP baseline —
//      instead of hanging or erroring out.
#include <cstdio>
#include <cstddef>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "baseline/baselines.hpp"
#include "bench/bench_util.hpp"
#include "exec/cli.hpp"
#include "exec/pool.hpp"
#include "runtime/active_runtime.hpp"

namespace {

constexpr double kRates[] = {0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0};

/// Slack allowed over the no-ISP baseline at 100% fault rate: the faulted
/// run still pays the aborted chunk retries, the migration itself, and
/// BAR-window reads before it degrades to host-only execution.
constexpr double kDegradationSlack = 1.25;

isp::runtime::ExecutionReport run_with_rate(const isp::ir::Program& program,
                                            double rate,
                                            std::uint64_t fault_seed) {
  using namespace isp;
  system::SystemModel system;
  runtime::RunConfig rc;
  rc.engine.fault.seed = fault_seed;
  rc.engine.fault.set_rate_all(rate);
  runtime::ActiveRuntime active(system);
  return active.run(program, rc).report;
}

bool sweep(const std::string& app_name, unsigned jobs) {
  using namespace isp;
  apps::AppConfig config;
  const auto program = apps::make_app(app_name, config);

  system::SystemModel base_system;
  const auto baseline = baseline::run_host_only(base_system, program);
  const auto fault_free = run_with_rate(program, 0.0, 0);

  // Zero-cost-when-disabled: a non-zero seed with all rates at zero must
  // not perturb a single bit of the timing.
  const auto zero_rate = run_with_rate(program, 0.0, 12345);
  const bool zero_ok = zero_rate.total.value() == fault_free.total.value();

  std::printf("\n%s: no-ISP baseline %.3f s, fault-free ActiveCpp %.3f s\n",
              app_name.c_str(), baseline.total.value(),
              fault_free.total.value());
  std::printf("%-8s %10s %12s %12s %6s %9s %9s %10s\n", "rate", "total (s)",
              "vs fault-free", "vs baseline", "migr", "injected", "exhaust",
              "penalty(s)");
  bench::print_rule();

  // Each rate is an independent run on its own SystemModel: fan the sweep
  // out, then print the rows in rate order (run_batch returns results in
  // submission order, so the table is identical at any job count).
  const auto reports = exec::run_batch(
      std::size(kRates),
      [&](std::size_t i) { return run_with_rate(program, kRates[i], 7); },
      jobs);

  double total_at_1 = 0.0;
  for (std::size_t i = 0; i < std::size(kRates); ++i) {
    const double rate = kRates[i];
    const auto& report = reports[i];
    std::printf("%-8.2f %10.3f %12.2fx %12.2fx %6u %9llu %9llu %10.4f\n",
                rate, report.total.value(),
                report.total.value() / fault_free.total.value(),
                report.total.value() / baseline.total.value(),
                report.migrations,
                static_cast<unsigned long long>(report.faults.total_injected()),
                static_cast<unsigned long long>(
                    report.faults.total_exhausted()),
                report.faults.penalty.value());
    if (rate == 1.0) total_at_1 = report.total.value();
  }
  bench::print_rule();

  const bool degrade_ok =
      total_at_1 <= baseline.total.value() * kDegradationSlack;
  std::printf("rate 0 bit-for-bit: %s   degradation at rate 1.0: %.2fx of "
              "no-ISP baseline (<= %.2fx): %s\n",
              zero_ok ? "PASS" : "FAIL",
              total_at_1 / baseline.total.value(), kDegradationSlack,
              degrade_ok ? "PASS" : "FAIL");
  return zero_ok && degrade_ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace isp;
  exec::reject_unknown_flags(argc, argv, {"--jobs"});
  const unsigned jobs = exec::jobs_from_args(argc, argv);
  bench::print_header(
      "Fault resilience: fault rate vs slowdown (all sites, deterministic "
      "schedule)");

  bool ok = true;
  ok &= sweep("tpch-q6", jobs);
  ok &= sweep("kmeans", jobs);

  std::printf(
      "\na fully-faulted device (rate 1.0) must degrade to the no-ISP "
      "baseline\nrather than hang or error out; rate 0 must be free.  %s\n",
      ok ? "ALL PASS" : "FAILURES ABOVE");
  return ok ? 0 : 1;
}
