// Unit tests: Equation 1, the device factor, estimate building, Algorithm 1
// and the exhaustive oracle.
#include <gtest/gtest.h>

#include "plan/assignment.hpp"
#include "plan/device_factor.hpp"
#include "plan/equation1.hpp"
#include "plan/estimates.hpp"
#include "plan/oracle.hpp"
#include "profile/sampler.hpp"
#include "system/model.hpp"

namespace isp::plan {
namespace {

TEST(Equation1, ProfitableWhenReductionDominates) {
  // 6.9 GB raw over 5 GB/s costs 1.38 s on the host side; a CSD that
  // computes a touch slower but ships back almost nothing wins.
  const Eq1Terms terms{.ds_raw = gigabytes(6.9),
                       .ct_host = Seconds{2.0},
                       .ct_device = Seconds{2.8},
                       .ds_processed = gigabytes(0.05),
                       .bw_d2h = gb_per_s(5.0)};
  EXPECT_TRUE(profitable(terms));
  EXPECT_NEAR(net_profit(terms).value(), 1.38 + 2.0 - 2.8 - 0.01, 1e-9);
}

TEST(Equation1, UnprofitableWhenDeviceTooSlow) {
  const Eq1Terms terms{.ds_raw = gigabytes(1.0),
                       .ct_host = Seconds{1.0},
                       .ct_device = Seconds{5.0},
                       .ds_processed = Bytes{0},
                       .bw_d2h = gb_per_s(5.0)};
  EXPECT_FALSE(profitable(terms));
}

TEST(Equation1, MonotoneInLinkBandwidth) {
  Eq1Terms terms{.ds_raw = gigabytes(6.9),
                 .ct_host = Seconds{1.0},
                 .ct_device = Seconds{1.5},
                 .ds_processed = gigabytes(0.1),
                 .bw_d2h = gb_per_s(2.0)};
  const auto slow_link = net_profit(terms);
  terms.bw_d2h = gb_per_s(10.0);
  const auto fast_link = net_profit(terms);
  // A faster link shrinks the raw-transfer saving: less profit for ISP.
  EXPECT_GT(slow_link, fast_link);
}

TEST(Equation1, RejectsZeroBandwidth) {
  Eq1Terms terms;
  terms.bw_d2h = BytesPerSecond{0.0};
  EXPECT_THROW(static_cast<void>(net_profit(terms)), Error);
}

TEST(Equation1, ContentionCollapsesToNetProfitWhenNeutral) {
  const Eq1Terms terms{.ds_raw = gigabytes(6.9),
                       .ct_host = Seconds{2.0},
                       .ct_device = Seconds{2.8},
                       .ds_processed = gigabytes(0.05),
                       .bw_d2h = gb_per_s(5.0)};
  const Eq1Contention neutral{.queue_wait = Seconds::zero(),
                              .cse_availability = 1.0,
                              .link_share = 1.0,
                              .reclaim_wait = Seconds::zero(),
                              .persist_cost = Seconds::zero()};
  EXPECT_DOUBLE_EQ(net_profit_under_contention(terms, neutral).value(),
                   net_profit(terms).value());
}

TEST(Equation1, ContentionStretchesTheDeviceSideOnly) {
  const Eq1Terms terms{.ds_raw = gigabytes(6.9),
                       .ct_host = Seconds{2.0},
                       .ct_device = Seconds{2.8},
                       .ds_processed = gigabytes(0.05),
                       .bw_d2h = gb_per_s(5.0)};
  const auto base = net_profit(terms);

  // Queue wait subtracts one-for-one from the profit.
  const auto queued = net_profit_under_contention(
      terms, {.queue_wait = Seconds{0.5},
              .cse_availability = 1.0,
              .link_share = 1.0,
              .reclaim_wait = Seconds::zero(),
              .persist_cost = Seconds::zero()});
  EXPECT_NEAR(queued.value(), base.value() - 0.5, 1e-9);

  // A throttled CSE inflates CT_device by 1/A.
  const auto throttled = net_profit_under_contention(
      terms, {.queue_wait = Seconds::zero(),
              .cse_availability = 0.5,
              .link_share = 1.0,
              .reclaim_wait = Seconds::zero(),
              .persist_cost = Seconds::zero()});
  EXPECT_NEAR(throttled.value(), base.value() - 2.8, 1e-9);

  // A halved link slows *both* transfers; with DS_raw >> DS_processed the
  // host side suffers more, so the device's relative profit grows.
  const auto shared_link = net_profit_under_contention(
      terms, {.queue_wait = Seconds::zero(),
              .cse_availability = 1.0,
              .link_share = 0.5,
              .reclaim_wait = Seconds::zero(),
              .persist_cost = Seconds::zero()});
  EXPECT_GT(shared_link, base);
}

TEST(Equation1, SideSplitRecombinesBitForBit) {
  // The serving bid cache recombines a cached device-side core with a fresh
  // host-side term, so the split must be *exactly* the monolithic profit:
  // host_side_cost − device_side_cost == net_profit_under_contention, bit
  // for bit, across contention regimes.
  const Eq1Terms terms{.ds_raw = gigabytes(6.9),
                       .ct_host = Seconds{2.0},
                       .ct_device = Seconds{2.8},
                       .ds_processed = gigabytes(0.05),
                       .bw_d2h = gb_per_s(5.0)};
  const Eq1Contention regimes[] = {
      {.queue_wait = Seconds::zero(),
       .cse_availability = 1.0,
       .link_share = 1.0,
       .reclaim_wait = Seconds::zero(),
       .persist_cost = Seconds::zero()},
      {.queue_wait = Seconds{0.75},
       .cse_availability = 0.37,
       .link_share = 0.5,
       .reclaim_wait = Seconds::zero(),
       .persist_cost = Seconds::zero()},
      {.queue_wait = Seconds{123.456},
       .cse_availability = 1e-6,
       .link_share = 0.125,
       .reclaim_wait = Seconds::zero(),
       .persist_cost = Seconds::zero()},
  };
  for (const auto& c : regimes) {
    const auto recombined = host_side_cost(terms, c) - device_side_cost(terms, c);
    EXPECT_EQ(recombined.value(),
              net_profit_under_contention(terms, c).value())
        << "A=" << c.cse_availability << " share=" << c.link_share;
  }
}

TEST(Equation1, StorageTermsSubtractFromTheDeviceSide) {
  // The backend-specific storage terms price exactly like queue wait: every
  // second of expected reclaim stall or persist cost comes straight off the
  // offload profit, and both land in device_side_cost for the bid cache's
  // side split.
  const Eq1Terms terms{.ds_raw = gigabytes(6.9),
                       .ct_host = Seconds{2.0},
                       .ct_device = Seconds{2.8},
                       .ds_processed = gigabytes(0.05),
                       .bw_d2h = gb_per_s(5.0)};
  const auto base = net_profit(terms);

  const auto reclaiming = net_profit_under_contention(
      terms, {.queue_wait = Seconds::zero(),
              .cse_availability = 1.0,
              .link_share = 1.0,
              .reclaim_wait = Seconds{0.25},
              .persist_cost = Seconds::zero()});
  EXPECT_NEAR(reclaiming.value(), base.value() - 0.25, 1e-9);

  const auto persisting = net_profit_under_contention(
      terms, {.queue_wait = Seconds::zero(),
              .cse_availability = 1.0,
              .link_share = 1.0,
              .reclaim_wait = Seconds::zero(),
              .persist_cost = Seconds{0.4}});
  EXPECT_NEAR(persisting.value(), base.value() - 0.4, 1e-9);

  const Eq1Contention both{.queue_wait = Seconds::zero(),
                           .cse_availability = 1.0,
                           .link_share = 1.0,
                           .reclaim_wait = Seconds{0.25},
                           .persist_cost = Seconds{0.4}};
  EXPECT_NEAR(net_profit_under_contention(terms, both).value(),
              base.value() - 0.65, 1e-9);
  const auto neutral_dev =
      device_side_cost(terms, Eq1Contention{});
  EXPECT_NEAR(device_side_cost(terms, both).value(),
              neutral_dev.value() + 0.65, 1e-9);
}

TEST(Equation1, StorageTermsRejectNegatives) {
  const Eq1Terms terms{.ds_raw = gigabytes(1.0),
                       .ct_host = Seconds{1.0},
                       .ct_device = Seconds{1.0},
                       .ds_processed = Bytes{0},
                       .bw_d2h = gb_per_s(5.0)};
  EXPECT_THROW(static_cast<void>(net_profit_under_contention(
                   terms, {.queue_wait = Seconds::zero(),
                           .cse_availability = 1.0,
                           .link_share = 1.0,
                           .reclaim_wait = Seconds{-0.1},
                           .persist_cost = Seconds::zero()})),
               Error);
  EXPECT_THROW(static_cast<void>(net_profit_under_contention(
                   terms, {.queue_wait = Seconds::zero(),
                           .cse_availability = 1.0,
                           .link_share = 1.0,
                           .reclaim_wait = Seconds::zero(),
                           .persist_cost = Seconds{-0.1}})),
               Error);
}

TEST(Equation1, ContentionRejectsBadFractions) {
  const Eq1Terms terms{.ds_raw = gigabytes(1.0),
                       .ct_host = Seconds{1.0},
                       .ct_device = Seconds{1.0},
                       .ds_processed = Bytes{0},
                       .bw_d2h = gb_per_s(5.0)};
  EXPECT_THROW(static_cast<void>(net_profit_under_contention(
                   terms, {.queue_wait = Seconds::zero(),
                           .cse_availability = 0.0,
                           .link_share = 1.0,
                           .reclaim_wait = Seconds::zero(),
                           .persist_cost = Seconds::zero()})),
               Error);
  EXPECT_THROW(static_cast<void>(net_profit_under_contention(
                   terms, {.queue_wait = Seconds::zero(),
                           .cse_availability = 1.0,
                           .link_share = 1.5,
                           .reclaim_wait = Seconds::zero(),
                           .persist_cost = Seconds::zero()})),
               Error);
  EXPECT_THROW(static_cast<void>(net_profit_under_contention(
                   terms, {.queue_wait = Seconds{-1.0},
                           .cse_availability = 1.0,
                           .link_share = 1.0,
                           .reclaim_wait = Seconds::zero(),
                           .persist_cost = Seconds::zero()})),
               Error);
}

TEST(DeviceFactor, CountersMatchArchitecture) {
  system::SystemModel system;
  const auto factor = device_factor_from_counters(system);
  // One A72 core at 1.5 GHz and half the IPC of a 3.6 GHz Zen2 core:
  // (3.6/1.5) / 0.5 = 4.8x slower per core.
  EXPECT_NEAR(factor.c, 4.8, 0.01);
}

TEST(DeviceFactor, CalibrationAgreesWithCounters) {
  system::SystemModel system;
  const auto counters = device_factor_from_counters(system);
  const auto calibrated = device_factor_from_calibration(system);
  EXPECT_NEAR(calibrated.c / counters.c, 1.0, 0.05);
}

/// A synthetic two-line program: a big reducing scan followed by a small
/// aggregation — the canonical ISP-friendly shape.
ir::Program scan_program(double reduction = 0.02, double scan_cpb = 4.0,
                         std::uint32_t csd_threads = 8) {
  ir::Program program("scan", 16.0);
  ir::Dataset d;
  d.object.name = "file";
  d.object.location = mem::Location::Storage;
  d.object.virtual_bytes = gigabytes(4.0);
  d.object.physical.resize_elems<float>(
      static_cast<std::size_t>(4e9 / 16.0 / sizeof(float)));
  d.elem_bytes = sizeof(float);
  program.add_dataset(std::move(d));

  ir::CodeRegion scan;
  scan.name = "hits = filter(file)";
  scan.inputs = {"file"};
  scan.outputs = {"hits"};
  scan.elem_bytes = sizeof(float);
  scan.cost.cycles_per_elem = scan_cpb;
  scan.csd_threads = csd_threads;
  scan.chunks = 16;
  scan.kernel = [reduction](ir::KernelCtx& ctx) {
    const auto in = ctx.input(0).physical.as<float>();
    auto& out = ctx.output(0);
    const auto keep = static_cast<std::size_t>(
        static_cast<double>(in.size()) * reduction);
    out.physical.resize_elems<float>(keep > 0 ? keep : 1);
    auto dst = out.physical.as<float>();
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = in[i];
  };
  program.add_line(std::move(scan));

  ir::CodeRegion agg;
  agg.name = "total = sum(hits)";
  agg.inputs = {"hits"};
  agg.outputs = {"total"};
  agg.elem_bytes = sizeof(float);
  agg.cost.cycles_per_elem = 2.0;
  agg.csd_threads = csd_threads;
  agg.chunks = 4;
  agg.kernel = [](ir::KernelCtx& ctx) {
    const auto in = ctx.input(0).physical.as<float>();
    double total = 0.0;
    for (const auto v : in) total += v;
    auto& out = ctx.output(0);
    out.physical.resize_elems<double>(1);
    out.physical.as<double>()[0] = total;
  };
  program.add_line(std::move(agg));
  return program;
}

std::vector<ir::LineEstimate> estimates_for(system::SystemModel& system,
                                            const ir::Program& program) {
  profile::Sampler sampler(system);
  const auto samples = sampler.run(program);
  return build_estimates(program, samples,
                         device_factor_from_counters(system), system);
}

TEST(Estimates, PropagateVolumesTransitively) {
  system::SystemModel system;
  const auto program = scan_program();
  const auto estimates = estimates_for(system, program);
  ASSERT_EQ(estimates.size(), 2u);
  // Line 0 reads the 4 GB file from storage.
  EXPECT_NEAR(estimates[0].storage_in.as_double(), 4e9, 4e7);
  EXPECT_EQ(estimates[0].d_in.count(), 0u);
  // Line 1 consumes line 0's predicted (reduced) output.
  EXPECT_NEAR(estimates[1].d_in.as_double(),
              estimates[0].d_out.as_double(), 1.0);
  EXPECT_LT(estimates[1].d_in.as_double(), 4e9 * 0.1);
  // Device times reflect parallelism: 8 CSE cores at 4.8x per-core slowdown
  // against one host thread -> 0.6x wall time.
  EXPECT_NEAR(estimates[0].ct_device.value() / estimates[0].ct_host.value(),
              0.6, 0.05);
}

TEST(Assignment, OffloadsReducingScan) {
  system::SystemModel system;
  const auto program = scan_program();
  const auto result =
      assign_csd(program, estimates_for(system, program), system);
  EXPECT_EQ(result.plan.placement[0], ir::Placement::Csd);
  EXPECT_LE(result.projected, result.projected_host);
  EXPECT_FALSE(result.plan.estimate.empty());
}

TEST(Assignment, KeepsComputeHeavyLineHome) {
  system::SystemModel system;
  // No volume reduction, compute-dominated, and serial on the CSD: a single
  // slow CSE core cannot compete with the host core.
  const auto program = scan_program(/*reduction=*/1.0, /*scan_cpb=*/64.0,
                                    /*csd_threads=*/1);
  const auto result =
      assign_csd(program, estimates_for(system, program), system);
  EXPECT_EQ(result.plan.placement[0], ir::Placement::Host);
  EXPECT_EQ(result.plan.placement[1], ir::Placement::Host);
  EXPECT_EQ(result.projected, result.projected_host);
}

TEST(Assignment, ProjectionNeverExceedsHostOnly) {
  system::SystemModel system;
  for (const double reduction : {0.01, 0.1, 0.5, 1.0}) {
    const auto program = scan_program(reduction);
    const auto result =
        assign_csd(program, estimates_for(system, program), system);
    EXPECT_LE(result.projected, result.projected_host);
  }
}

TEST(Assignment, IsIdempotent) {
  system::SystemModel system;
  const auto program = scan_program();
  const auto estimates = estimates_for(system, program);
  const auto first = assign_csd(program, estimates, system);
  const auto second = assign_csd(program, estimates, system);
  EXPECT_EQ(first.plan.placement, second.plan.placement);
  EXPECT_EQ(first.projected, second.projected);
}

TEST(Oracle, FindsNoWorsePlanThanHostOnly) {
  system::SystemModel system;
  const auto program = scan_program();
  const auto result = exhaustive_oracle(system, program);
  EXPECT_EQ(result.combinations_evaluated, 4u);  // 2 lines -> 2^2
  EXPECT_LE(result.best_latency, result.host_only_latency);
  EXPECT_EQ(result.best.placement.size(), 2u);
}

TEST(Oracle, AgreesWithAlgorithm1OnCanonicalShape) {
  system::SystemModel system;
  const auto program = scan_program();
  const auto oracle = exhaustive_oracle(system, program);
  const auto algo =
      assign_csd(program, estimates_for(system, program), system);
  EXPECT_EQ(oracle.best.placement, algo.plan.placement);
}

TEST(Oracle, MeasuredEstimatesMatchKernelBehaviour) {
  system::SystemModel system;
  const auto program = scan_program(0.05);
  const auto truth = measure_true_estimates(system, program);
  ASSERT_EQ(truth.size(), 2u);
  // The scan really produced ~5% of its input volume.
  EXPECT_NEAR(truth[0].d_out.as_double() / 4e9, 0.05, 0.005);
  EXPECT_GT(truth[0].instructions, 0.0);
}

TEST(Oracle, RefusesOversizedPrograms) {
  system::SystemModel system;
  ir::Program big("big", 16.0);
  ir::Dataset d;
  d.object.name = "x";
  d.object.virtual_bytes = Bytes{1024};
  d.object.physical.resize_elems<float>(16);
  big.add_dataset(std::move(d));
  std::string prev = "x";
  for (int i = 0; i < 25; ++i) {
    ir::CodeRegion line;
    line.name = "l" + std::to_string(i);
    line.inputs = {prev};
    line.outputs = {"o" + std::to_string(i)};
    prev = "o" + std::to_string(i);
    big.add_line(std::move(line));
  }
  EXPECT_THROW(exhaustive_oracle(system, big), Error);
}

}  // namespace
}  // namespace isp::plan
