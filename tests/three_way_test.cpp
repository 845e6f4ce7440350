// Tests: the GPU unit model and the three-way placement DP.
#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "bench/gpu.hpp"
#include "bench/three_way.hpp"
#include "plan/oracle.hpp"

namespace isp::plan {
namespace {

TEST(Gpu, ParallelLinesAccelerate) {
  host::Gpu gpu;
  const Seconds work{4.0};
  const auto fast = gpu.compute_seconds(work, 8);
  EXPECT_LT(fast.value(), 0.2);  // 40x a host core, plus launch
  EXPECT_GT(fast.value(), 4.0 / 40.0 - 1e-9);
}

TEST(Gpu, SerialLinesDoNotBenefit) {
  host::Gpu gpu;
  const Seconds work{4.0};
  const auto serial = gpu.compute_seconds(work, 1);
  EXPECT_GE(serial.value(), 4.0);  // one slow lane + launch overhead
}

TEST(Gpu, RejectsBadConfig) {
  host::GpuConfig config;
  config.speedup_vs_host_core = 0.0;
  EXPECT_THROW(host::Gpu{config}, Error);
}

class ThreeWay : public ::testing::TestWithParam<const char*> {};

TEST_P(ThreeWay, AddingAUnitNeverHurtsTheProjection) {
  apps::AppConfig config;
  config.size_factor = 0.2;
  const auto program = apps::make_app(GetParam(), config);
  system::SystemModel system;
  const auto estimates = measure_true_estimates(system, program);
  host::Gpu gpu;
  const auto result = explore_three_way(program, estimates, system, gpu);

  // More options can only improve an optimal projection.
  EXPECT_LE(result.projected.value(),
            result.projected_two_way.value() + 1e-9);
  EXPECT_LE(result.projected_two_way.value(),
            result.projected_host_only.value() + 1e-9);
  EXPECT_EQ(result.placement.size(), program.line_count());
}

TEST_P(ThreeWay, UselessGpuChangesNothing) {
  apps::AppConfig config;
  config.size_factor = 0.2;
  const auto program = apps::make_app(GetParam(), config);
  system::SystemModel system;
  const auto estimates = measure_true_estimates(system, program);
  host::GpuConfig slow;
  slow.speedup_vs_host_core = 0.01;  // a GPU worse than one host core
  host::Gpu gpu(slow);
  const auto result = explore_three_way(program, estimates, system, gpu);
  EXPECT_EQ(result.count(Unit::Gpu), 0u);
  EXPECT_NEAR(result.projected.value(), result.projected_two_way.value(),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Apps, ThreeWay,
                         ::testing::Values("tpch-q6", "blackscholes",
                                           "mixedgemm", "kmeans",
                                           "pagerank"));

TEST(ThreeWay, ComputeDenseParallelLinesDefectToGpu) {
  // Blackscholes at full scale: the pricing line is compute-dense and fully
  // data-parallel — the canonical GPU defector, fed by a CSD-side parse.
  apps::AppConfig config;
  const auto program = apps::make_app("blackscholes", config);
  system::SystemModel system;
  const auto estimates = measure_true_estimates(system, program);
  host::Gpu gpu;
  const auto result = explore_three_way(program, estimates, system, gpu);
  EXPECT_GT(result.count(Unit::Gpu), 0u);
  EXPECT_LT(result.projected.value(), result.projected_two_way.value());
}

}  // namespace
}  // namespace isp::plan
