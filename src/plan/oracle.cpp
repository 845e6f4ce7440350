#include "plan/oracle.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "plan/device_factor.hpp"

namespace isp::plan {

std::vector<ir::LineEstimate> measure_true_estimates(
    system::SystemModel& system, const ir::Program& program) {
  runtime::EngineOptions options;
  options.monitoring = false;
  options.migration = false;

  auto store = program.make_store();
  const auto plan = ir::Plan::host_only(program.line_count());
  const auto report = runtime::run_program(
      system, program, plan, codegen::ExecMode::NativeC, options, &store);

  const auto& cse = system.csd_device().cse();
  const double host_clock = system.host_cpu().config().clock.value();

  std::vector<ir::LineEstimate> estimates;
  estimates.reserve(report.lines.size());
  for (std::size_t i = 0; i < report.lines.size(); ++i) {
    const auto& rec = report.lines[i];
    const auto& line = program.lines()[i];
    ir::LineEstimate est;
    est.ct_host = rec.compute;
    // True device/host wall ratio for this line's parallelism.
    const double host_eff = static_cast<double>(
        std::min(line.host_threads, system.host_cpu().config().cores));
    const double csd_eff =
        static_cast<double>(std::min(line.csd_threads, cse.config().cores)) *
        cse.core_speed_vs_host();
    est.ct_device = est.ct_host * (host_eff / csd_eff);
    est.storage_in = rec.storage_bytes;
    est.d_in = rec.in_bytes - rec.storage_bytes;
    est.d_out = rec.out_bytes;
    est.instructions = rec.compute.value() * host_eff * host_clock *
                       line.cost.host_ipc;
    estimates.push_back(est);
  }
  return estimates;
}

OracleResult exhaustive_oracle(system::SystemModel& system,
                               const ir::Program& program,
                               OracleOptions options) {
  const auto n = program.line_count();
  ISP_CHECK(n <= options.max_lines,
            "program too large for exhaustive search: " << n << " lines");

  const auto estimates = measure_true_estimates(system, program);

  // Timing-only replays: every line's outputs take the measured size.
  ir::OutputSizes sizes;
  sizes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sizes.emplace_back(program.lines()[i].outputs.size(), estimates[i].d_out);
  }
  runtime::EngineOptions engine_options = options.engine;
  engine_options.output_sizes = &sizes;
  engine_options.monitoring = false;
  engine_options.migration = false;

  OracleResult result;
  result.best_latency = Seconds::infinity();

  const std::uint64_t combos = 1ULL << n;
  for (std::uint64_t mask = 0; mask < combos; ++mask) {
    ir::Plan plan = ir::Plan::host_only(n);
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1ULL) plan.placement[i] = ir::Placement::Csd;
    }
    plan.estimate = estimates;

    const auto report = runtime::run_program(
        system, program, plan, codegen::ExecMode::NativeC, engine_options);
    ++result.combinations_evaluated;

    if (mask == 0) result.host_only_latency = report.total;
    if (report.total < result.best_latency) {
      result.best_latency = report.total;
      result.best = std::move(plan);
    }
  }
  return result;
}

}  // namespace isp::plan
