// Property tests over the execution engine: determinism, monotonicity in
// availability, conservation of link traffic, migration under injected
// faults, and sampler structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "baseline/baselines.hpp"
#include "exec/pool.hpp"
#include "profile/sampler.hpp"
#include "runtime/active_runtime.hpp"

namespace isp {
namespace {

apps::AppConfig small() {
  apps::AppConfig config;
  config.size_factor = 0.2;
  return config;
}

class EngineProperties : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineProperties, RunsAreDeterministic) {
  const auto program = apps::make_app(GetParam(), small());
  std::string first_json;
  for (int run = 0; run < 2; ++run) {
    system::SystemModel system;
    runtime::ActiveRuntime active(system);
    const auto result = active.run(program);
    const auto json = result.report.to_json();
    if (run == 0) {
      first_json = json;
    } else {
      EXPECT_EQ(json, first_json) << "nondeterministic execution";
    }
  }
}

TEST_P(EngineProperties, LatencyMonotoneInCseAvailability) {
  const auto program = apps::make_app(GetParam(), small());
  system::SystemModel oracle_system;
  const auto oracle =
      baseline::programmer_directed_plan(oracle_system, program);

  double previous = 0.0;
  for (const double avail : {1.0, 0.75, 0.5, 0.25}) {
    system::SystemModel system;
    const auto report = baseline::run_static_isp(
        system, program, oracle.best,
        sim::AvailabilitySchedule::constant(avail));
    EXPECT_GE(report.total.value(), previous)
        << "lower availability must never run faster";
    previous = report.total.value();
  }
}

TEST_P(EngineProperties, RawInputTrafficBoundedByStorage) {
  const auto program = apps::make_app(GetParam(), small());
  system::SystemModel system;
  const auto report = baseline::run_host_only(system, program);
  // Host-only: every stored byte crosses the link exactly once.
  const auto raw = report.dma
                       .bytes[static_cast<int>(
                           interconnect::TransferKind::RawInput)];
  EXPECT_EQ(raw.count(), program.total_storage_bytes().count());
  // And nothing else moves.
  EXPECT_EQ(report.dma.total_bytes().count(), raw.count());
}

TEST_P(EngineProperties, CsdRunMovesLessRawData) {
  const auto program = apps::make_app(GetParam(), small());
  system::SystemModel host_system;
  const auto host = baseline::run_host_only(host_system, program);

  system::SystemModel system;
  runtime::ActiveRuntime active(system);
  const auto result = active.run(program);
  if (result.plan.csd_line_count() == 0) GTEST_SKIP();

  const auto host_raw =
      host.dma.bytes[static_cast<int>(interconnect::TransferKind::RawInput)];
  const auto isp_raw = result.report.dma.bytes[static_cast<int>(
      interconnect::TransferKind::RawInput)];
  EXPECT_LT(isp_raw.count(), host_raw.count())
      << "offloading must reduce raw-input link traffic";
}

TEST_P(EngineProperties, StatusUpdatesOnlyFromCsdLines) {
  const auto program = apps::make_app(GetParam(), small());
  system::SystemModel system;
  runtime::ActiveRuntime active(system);
  const auto result = active.run(program);

  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < program.line_count(); ++i) {
    if (result.plan.placement[i] == ir::Placement::Csd &&
        result.report.lines[i].placement == ir::Placement::Csd) {
      expected += program.lines()[i].chunks;
    }
  }
  // Without migration the counts match exactly.
  if (result.report.migrations == 0) {
    EXPECT_EQ(result.report.status_updates, expected);
  } else {
    EXPECT_LE(result.report.status_updates, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, EngineProperties,
                         ::testing::Values("tpch-q6", "tpch-q1", "kmeans",
                                           "blackscholes", "pagerank",
                                           "mixedgemm"));

// ---------------------------------------------------------------------------
// Migration under fault.  For every injectable engine-path fault site and a
// sweep of first-fault positions (skip_first moves the fault across
// chunks/pages/transfers, and with it the cut line a forced migration
// breaks at), a planned run with recovery and migration armed must preserve
// functional results, keep its virtual-time books consistent with the
// simulated clock, and replay bit-for-bit.

const ir::Program& fault_program() {
  static const ir::Program program = apps::make_app("tpch-q6", small());
  return program;
}

const ir::ObjectStore& host_reference() {
  static const ir::ObjectStore store = [] {
    runtime::EngineOptions options;
    options.monitoring = false;
    options.migration = false;
    system::SystemModel system;
    auto s = fault_program().make_store();
    runtime::run_program(system, fault_program(),
                         ir::Plan::host_only(fault_program().line_count()),
                         codegen::ExecMode::NativeC, options, &s);
    return s;
  }();
  return store;
}

const ir::Plan& planned() {
  static const ir::Plan plan = [] {
    system::SystemModel system;
    runtime::ActiveRuntime active(system);
    auto result = active.run(fault_program());
    return result.plan;
  }();
  return plan;
}

/// Fault-free run of the planned placement (same options as the faulted
/// runs, minus the faults): the baseline the penalty bound compares against.
const runtime::ExecutionReport& fault_free_planned() {
  static const runtime::ExecutionReport report = [] {
    system::SystemModel system;
    runtime::EngineOptions options;
    return runtime::run_program(system, fault_program(), planned(),
                                codegen::ExecMode::NativeC, options);
  }();
  return report;
}

class MigrationUnderFault : public ::testing::TestWithParam<int> {};

constexpr std::uint64_t kSkips[] = {0, 1, 3, 7};

// One shard per engine-path fault site; the skip_first sweep of that site
// fans out through exec::run_batch (fresh SystemModel and store per run,
// replay included), with all assertions on the test thread afterwards.
// Same site x cut coverage as the flat matrix.
TEST_P(MigrationUnderFault, PreservesResultsAndAccountsVirtualTime) {
  const auto site = static_cast<fault::Site>(GetParam());
  const auto& program = fault_program();
  // Warm the shared fixtures before fanning out so the batch tasks only
  // ever read them.
  const auto& final_name = program.lines().back().outputs.front();
  const auto& h = host_reference().at(final_name).physical;
  const auto& plan = planned();
  const auto& base = fault_free_planned();

  struct Outcome {
    std::vector<std::byte> result;
    std::vector<std::pair<double, double>> line_spans;  // (start, end)
    double total = 0.0;
    double penalty = 0.0;
    std::uint64_t migrations = 0;
    std::uint64_t degradations = 0;
    std::uint64_t exhausted = 0;
    std::uint64_t status_updates = 0;
    bool replay_identical = false;
  };
  const auto outcomes = exec::run_batch(
      std::size(kSkips),
      [&](std::size_t i) {
        runtime::EngineOptions options;  // monitoring + migration armed
        options.fault.seed = 31;
        options.fault.sites[static_cast<std::size_t>(site)] =
            fault::SiteConfig{.rate = 1.0, .skip_first = kSkips[i]};

        system::SystemModel system;
        auto store = program.make_store();
        const auto report =
            runtime::run_program(system, program, plan,
                                 codegen::ExecMode::NativeC, options, &store);

        // Seed-deterministic replay, bit for bit.
        system::SystemModel system2;
        auto store2 = program.make_store();
        const auto replay =
            runtime::run_program(system2, program, plan,
                                 codegen::ExecMode::NativeC, options, &store2);

        Outcome o;
        const auto bytes = store.at(final_name).physical.as<std::byte>();
        o.result.assign(bytes.data(), bytes.data() + bytes.size());
        for (const auto& rec : report.lines) {
          o.line_spans.emplace_back(rec.start.seconds(), rec.end.seconds());
        }
        o.total = report.total.value();
        o.penalty = report.faults.penalty.value();
        o.migrations = report.migrations;
        o.degradations = report.faults.degradations;
        o.exhausted = report.faults.total_exhausted();
        o.status_updates = report.status_updates;
        o.replay_identical = report.to_json() == replay.to_json();
        return o;
      },
      std::max(2U, exec::default_jobs()));

  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const std::uint64_t skip = kSkips[i];
    SCOPED_TRACE("skip_first " + std::to_string(skip));
    const auto& o = outcomes[i];

    // (1) Functional results identical to the host-only fault-free
    // reference: retries, escalations, and forced migrations never corrupt
    // data.
    ASSERT_EQ(h.size_bytes(), o.result.size());
    EXPECT_EQ(0, std::memcmp(h.as<std::byte>().data(), o.result.data(),
                             o.result.size()));

    // (2) The books match the simulator clock: line records advance
    // monotonically and the reported total covers the last of them.
    double prev_start = 0.0;
    for (const auto& [start, end] : o.line_spans) {
      EXPECT_GE(start, prev_start - 1e-12);
      EXPECT_GE(end, start - 1e-12);
      prev_start = start;
    }
    ASSERT_FALSE(o.line_spans.empty());
    EXPECT_GE(o.total + 1e-9, o.line_spans.back().second);

    // (3) Seed-deterministic replay, bit for bit.
    EXPECT_TRUE(o.replay_identical);

    // (4) When nothing migrated in either run, the accounted fault penalty
    // bounds the slowdown exactly: total lands in
    // [fault-free, fault-free + penalty] (pipelined stages can swallow part
    // of a penalty, so the lower edge is the fault-free time itself).
    if (o.migrations == 0 && base.migrations == 0) {
      EXPECT_GE(o.total, base.total.value() - 1e-9);
      EXPECT_LE(o.total, base.total.value() + o.penalty + 1e-9);
    }

    // (5) Site-specific recovery outcomes.
    if (site == fault::Site::StatusLoss) {
      // Only the skip_first prefix can reach the host; everything after is
      // lost, and the run must still complete without the monitor's feed.
      EXPECT_LE(o.status_updates, skip);
    }
    if (site == fault::Site::CseCrash && o.exhausted > 0) {
      // An exhausted crash must degrade to the host, and the degradation
      // must be recorded as such.
      EXPECT_GE(o.migrations, 1u);
      EXPECT_GE(o.degradations, 1u);
    }
  }
}

// Engine-path sites (NvmeCommand is exercised on the controller oracle in
// nvme_test.cpp); each shard sweeps the first-fault positions.
INSTANTIATE_TEST_SUITE_P(SitesAndCuts, MigrationUnderFault,
                         ::testing::Range(1, 6));

TEST(Sampler, ProducesFourPointsPerLine) {
  const auto program = apps::make_app("tpch-q6", small());
  system::SystemModel system;
  profile::Sampler sampler(system);
  const auto set = sampler.run(program);
  ASSERT_EQ(set.lines.size(), program.line_count());
  for (const auto& line : set.lines) {
    ASSERT_EQ(line.points.size(), 4u);
    // Fractions ascend 2^-10 .. 2^-7 and sizes ascend with them.
    for (std::size_t i = 1; i < line.points.size(); ++i) {
      EXPECT_GT(line.points[i].fraction, line.points[i - 1].fraction);
      EXPECT_GE(line.points[i].in_bytes.count(),
                line.points[i - 1].in_bytes.count());
    }
  }
  EXPECT_GT(set.overhead.value(), 0.0);
}

TEST(Sampler, CustomFractionsRespected) {
  const auto program = apps::make_app("tpch-q6", small());
  system::SystemModel system;
  profile::SamplerConfig config;
  config.fractions = {0.01, 0.02};
  profile::Sampler sampler(system, config);
  const auto set = sampler.run(program);
  ASSERT_EQ(set.lines[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(set.lines[0].points[0].fraction, 0.01);
}

TEST(Sampler, SeparatesAccessFromCompute) {
  const auto program = apps::make_app("tpch-q6", small());
  system::SystemModel system;
  profile::Sampler sampler(system);
  const auto set = sampler.run(program);
  // Line 0 reads storage: both components nonzero, and access scales
  // linearly with the fraction while staying distinct from compute.
  const auto& p0 = set.lines[0].points.front();
  const auto& p3 = set.lines[0].points.back();
  EXPECT_GT(p0.access.value(), 0.0);
  EXPECT_GT(p0.compute.value(), 0.0);
  EXPECT_NEAR(p3.access.value() / p0.access.value(), 8.0, 1.0);
}

}  // namespace
}  // namespace isp
