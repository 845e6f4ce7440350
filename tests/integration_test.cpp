// Integration tests: the full ActiveCpp pipeline — sampling, fitting,
// Algorithm 1, code generation, execution, monitoring, migration — on every
// workload at reduced scale.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "apps/registry.hpp"
#include "baseline/baselines.hpp"
#include "common/digest.hpp"
#include "plan/oracle.hpp"
#include "runtime/active_runtime.hpp"

namespace isp {
namespace {

apps::AppConfig test_config() {
  apps::AppConfig config;
  config.size_factor = 0.25;
  config.seed = 7;
  return config;
}

class FullPipeline : public ::testing::TestWithParam<const char*> {};

TEST_P(FullPipeline, ProducesConsistentRun) {
  const auto program = apps::make_app(GetParam(), test_config());

  system::SystemModel baseline_system;
  const auto baseline = baseline::run_host_only(baseline_system, program);

  system::SystemModel system;
  runtime::ActiveRuntime active(system);
  const auto result = active.run(program);

  // Structure: one placement per line, estimates attached.
  ASSERT_EQ(result.plan.placement.size(), program.line_count());
  ASSERT_EQ(result.plan.estimate.size(), program.line_count());
  ASSERT_EQ(result.report.lines.size(), program.line_count());

  // The sampling phase is a small fraction of the run.
  EXPECT_LT(result.sampling_overhead.value(),
            0.12 * baseline.total.value());
  EXPECT_GT(result.sampling_overhead.value(), 0.0);

  // The planner's projection brackets reality loosely.
  EXPECT_LE(result.projected_csd, result.projected_host);

  // Per-line records tile the timeline.
  SimTime prev = SimTime::zero();
  for (const auto& line : result.report.lines) {
    EXPECT_GE(line.start, prev);
    EXPECT_GE(line.end, line.start);
    prev = line.end;
  }
  // Final outputs may still ship to the host after the last line ends.
  EXPECT_GE(result.report.total.value(),
            result.report.lines.back().end.seconds() - 1e-9);
  EXPECT_LT(result.report.total.value(),
            result.report.lines.back().end.seconds() + 1.0);

  // With a fully dedicated CSD, ActiveCpp must never lose badly to the C
  // baseline, and should usually win.
  const double speedup = baseline.total.value() / result.end_to_end().value();
  EXPECT_GT(speedup, 0.95) << "ActiveCpp lost to the baseline";
  EXPECT_EQ(result.report.migrations, 0u)
      << "no migration expected at full availability";
}

TEST_P(FullPipeline, MatchesProgrammerDirectedPlan) {
  const auto program = apps::make_app(GetParam(), test_config());
  system::SystemModel system;
  const auto oracle = baseline::programmer_directed_plan(system, program);

  runtime::ActiveRuntime active(system);
  const auto result = active.run(program);
  EXPECT_EQ(result.plan.placement, oracle.best.placement)
      << "ActiveCpp chose different regions than the exhaustive search";
}

TEST_P(FullPipeline, MigrationKeepsResultsCorrectUnderContention) {
  const auto program = apps::make_app(GetParam(), test_config());

  // Reference values from a host-only functional run.
  system::SystemModel host_system;
  runtime::EngineOptions quiet;
  quiet.monitoring = false;
  quiet.migration = false;
  auto host_store = program.make_store();
  runtime::run_program(host_system, program,
                       ir::Plan::host_only(program.line_count()),
                       codegen::ExecMode::NativeC, quiet, &host_store);

  system::SystemModel system;
  runtime::RunConfig rc;
  rc.engine.contention.enabled = true;
  rc.engine.contention.at_csd_progress = 0.5;
  rc.engine.contention.availability = 0.1;
  runtime::ActiveRuntime active(system);
  const auto result = active.run(program, rc);

  // Severe contention on a mostly-offloaded program triggers migration.
  if (result.plan.csd_line_count() >= 2) {
    EXPECT_GE(result.report.migrations, 1u) << "expected a migration at 10%";
  }

  // Functional equality of every final output against the host run.
  system::SystemModel check_system;
  auto check_store = program.make_store();
  runtime::EngineOptions contended = rc.engine;
  auto plan = result.plan;
  runtime::run_program(check_system, program, plan,
                       codegen::ExecMode::NativeC, contended, &check_store);
  for (const auto& line : program.lines()) {
    for (const auto& name : line.outputs) {
      const auto& h = host_store.at(name).physical;
      const auto& c = check_store.at(name).physical;
      ASSERT_EQ(h.size_bytes(), c.size_bytes()) << name;
      EXPECT_EQ(0, std::memcmp(h.as<std::byte>().data(),
                               c.as<std::byte>().data(), h.size_bytes()))
          << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, FullPipeline,
                         ::testing::Values("blackscholes", "kmeans",
                                           "lightgbm", "matrixmul",
                                           "mixedgemm", "pagerank", "tpch-q1",
                                           "tpch-q6", "tpch-q14", "sparsemv"));

// The reproduction's comparators must not depend on what ran on the model
// before them, or they cannot be computed once per app and shared between
// experiments: the exhaustive oracle's host-only and best latencies and
// placement, the C baseline's total and the true per-line estimates are
// bit-identical on a fresh SystemModel and on one that already ran other
// apps (ActiveCpp under contention, their baselines, oracles and true
// estimates).
class Comparators : public ::testing::TestWithParam<const char*> {};

/// Every field of every line estimate, by bit pattern.
std::vector<std::uint64_t> estimate_bits(
    const std::vector<ir::LineEstimate>& estimates) {
  std::vector<std::uint64_t> bits;
  for (const auto& e : estimates) {
    bits.insert(bits.end(), {double_bits(e.ct_host.value()),
                             double_bits(e.ct_device.value()),
                             e.storage_in.count(), e.d_in.count(),
                             e.d_out.count(), double_bits(e.instructions)});
  }
  return bits;
}

TEST_P(Comparators, IdenticalOnUsedAndFreshModel) {
  apps::AppConfig config;
  config.size_factor = 0.05;
  const auto program = apps::make_app(GetParam(), config);

  system::SystemModel fresh_baseline_system;
  const auto fresh_baseline =
      baseline::run_host_only(fresh_baseline_system, program);
  system::SystemModel fresh_oracle_system;
  const auto fresh_oracle =
      baseline::programmer_directed_plan(fresh_oracle_system, program);
  system::SystemModel fresh_truth_system;
  const auto fresh_truth =
      estimate_bits(plan::measure_true_estimates(fresh_truth_system, program));

  system::SystemModel used;
  for (const char* other : {"pagerank", "tpch-q14", "kmeans"}) {
    const auto earlier = apps::make_app(other, config);
    runtime::RunConfig rc;
    rc.engine.contention.enabled = true;
    rc.engine.contention.at_csd_progress = 0.5;
    rc.engine.contention.availability = 0.1;
    runtime::ActiveRuntime active(used);
    (void)active.run(earlier, rc);
    (void)baseline::run_host_only(used, earlier);
    (void)baseline::programmer_directed_plan(used, earlier);
    (void)plan::measure_true_estimates(used, earlier);
  }
  // Twice each, so a comparator that left state behind shows up too.
  for (int round = 0; round < 2; ++round) {
    const auto baseline = baseline::run_host_only(used, program);
    const auto oracle = baseline::programmer_directed_plan(used, program);
    EXPECT_EQ(double_bits(baseline.total.value()),
              double_bits(fresh_baseline.total.value()))
        << "round " << round;
    EXPECT_EQ(double_bits(oracle.host_only_latency.value()),
              double_bits(fresh_oracle.host_only_latency.value()))
        << "round " << round;
    EXPECT_EQ(double_bits(oracle.best_latency.value()),
              double_bits(fresh_oracle.best_latency.value()))
        << "round " << round;
    EXPECT_EQ(oracle.best.placement, fresh_oracle.best.placement)
        << "round " << round;
    EXPECT_EQ(estimate_bits(plan::measure_true_estimates(used, program)),
              fresh_truth)
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, Comparators,
                         ::testing::Values("blackscholes", "kmeans",
                                           "lightgbm", "matrixmul",
                                           "mixedgemm", "pagerank", "tpch-q1",
                                           "tpch-q6", "tpch-q14", "sparsemv"));

TEST(FullPipeline, CalibrationKernelPathWorks) {
  const auto program = apps::make_app("tpch-q6", test_config());
  system::SystemModel system;
  runtime::RunConfig rc;
  rc.factor_source = runtime::DeviceFactorSource::CalibrationKernel;
  runtime::ActiveRuntime active(system);
  const auto result = active.run(program, rc);
  EXPECT_NEAR(result.device_factor, 4.8, 0.3);
}

TEST(FullPipeline, StaticPlanDegradesUnderReducedAvailability) {
  const auto program = apps::make_app("tpch-q6", test_config());
  system::SystemModel system;
  const auto oracle = baseline::programmer_directed_plan(system, program);
  const auto baseline_report = baseline::run_host_only(system, program);

  const auto full = baseline::run_static_isp(
      system, program, oracle.best, sim::AvailabilitySchedule::constant(1.0));
  const auto starved = baseline::run_static_isp(
      system, program, oracle.best, sim::AvailabilitySchedule::constant(0.1));
  EXPECT_LT(full.total.value(), baseline_report.total.value());
  EXPECT_GT(starved.total.value(), baseline_report.total.value());
}

TEST(FullPipeline, ReportsDescribeThemselves) {
  const auto program = apps::make_app("tpch-q6", test_config());
  system::SystemModel system;
  runtime::ActiveRuntime active(system);
  const auto result = active.run(program);
  const auto text = result.report.to_string();
  EXPECT_NE(text.find("tpch-q6"), std::string::npos);
  EXPECT_NE(text.find("end-to-end"), std::string::npos);
  EXPECT_GT(result.report.lines_on_csd(), 0u);
  EXPECT_GT(result.report.compute_total().value(), 0.0);
  EXPECT_GT(result.report.access_total().value(), 0.0);
}

}  // namespace
}  // namespace isp
