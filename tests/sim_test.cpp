// Unit + property tests: discrete-event core and availability schedules.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/availability.hpp"
#include "oracle/simulator.hpp"

namespace isp::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(Seconds{3.0}, [&] { order.push_back(3); });
  s.schedule(Seconds{1.0}, [&] { order.push_back(1); });
  s.schedule(Seconds{2.0}, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now().seconds(), 3.0);
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule(Seconds{1.0}, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int fired = 0;
  s.schedule(Seconds{1.0}, [&] {
    ++fired;
    s.schedule(Seconds{1.0}, [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(s.now().seconds(), 2.0);
}

TEST(Simulator, RunUntilStopsOnTime) {
  Simulator s;
  int fired = 0;
  s.schedule(Seconds{1.0}, [&] { ++fired; });
  s.schedule(Seconds{5.0}, [&] { ++fired; });
  s.run_until(SimTime{2.0});
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.idle());
  EXPECT_DOUBLE_EQ(s.now().seconds(), 2.0);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator s;
  s.schedule(Seconds{1.0}, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(SimTime{0.5}, [] {}), Error);
  EXPECT_THROW(s.schedule(Seconds{-1.0}, [] {}), Error);
}

TEST(Availability, ConstantFullSpeed) {
  const auto s = AvailabilitySchedule::constant(1.0);
  EXPECT_DOUBLE_EQ(s.fraction_at(SimTime{123.0}), 1.0);
  const auto done = s.finish_time(SimTime{2.0}, Seconds{3.0});
  EXPECT_DOUBLE_EQ(done.seconds(), 5.0);
}

TEST(Availability, HalfSpeedDoublesTime) {
  const auto s = AvailabilitySchedule::constant(0.5);
  const auto done = s.finish_time(SimTime{0.0}, Seconds{3.0});
  EXPECT_DOUBLE_EQ(done.seconds(), 6.0);
}

TEST(Availability, ZeroWorkIsImmediate) {
  const auto s = AvailabilitySchedule::constant(0.0);
  EXPECT_DOUBLE_EQ(s.finish_time(SimTime{4.0}, Seconds{0.0}).seconds(), 4.0);
}

TEST(Availability, StarvationIsInfinity) {
  const auto s = AvailabilitySchedule::constant(0.0);
  EXPECT_EQ(s.finish_time(SimTime{0.0}, Seconds{1.0}), SimTime::infinity());
}

TEST(Availability, StepScheduleStretchesAcrossBoundary) {
  // Full speed for 1 s, then quarter speed.
  auto s = AvailabilitySchedule::steps(
      {{SimTime::zero(), 1.0}, {SimTime{1.0}, 0.25}});
  // 2 s of work starting at t=0: 1 s at full + 1 s remaining at 0.25 -> 4 s.
  EXPECT_DOUBLE_EQ(s.finish_time(SimTime{0.0}, Seconds{2.0}).seconds(), 5.0);
  // Work entirely inside the throttled region.
  EXPECT_DOUBLE_EQ(s.finish_time(SimTime{2.0}, Seconds{1.0}).seconds(), 6.0);
}

TEST(Availability, WorkDoneIntegrates) {
  auto s = AvailabilitySchedule::steps(
      {{SimTime::zero(), 1.0}, {SimTime{1.0}, 0.5}});
  EXPECT_DOUBLE_EQ(s.work_done(SimTime{0.0}, SimTime{1.0}).value(), 1.0);
  EXPECT_DOUBLE_EQ(s.work_done(SimTime{0.0}, SimTime{3.0}).value(), 2.0);
  EXPECT_DOUBLE_EQ(s.work_done(SimTime{2.0}, SimTime{2.0}).value(), 0.0);
}

TEST(Availability, AddStepAppends) {
  auto s = AvailabilitySchedule::constant(1.0);
  s.add_step(SimTime{2.0}, 0.1);
  EXPECT_DOUBLE_EQ(s.fraction_at(SimTime{1.0}), 1.0);
  EXPECT_DOUBLE_EQ(s.fraction_at(SimTime{2.0}), 0.1);
  EXPECT_THROW(s.add_step(SimTime{1.0}, 0.5), Error);
}

TEST(Availability, AddStepRejectsNonMonotonicTimes) {
  auto s = AvailabilitySchedule::constant(1.0);
  s.add_step(SimTime{2.0}, 0.1);
  EXPECT_THROW(s.add_step(SimTime{2.0}, 0.5), Error);  // equal time
  EXPECT_THROW(s.add_step(SimTime{1.0}, 0.5), Error);  // earlier time
  EXPECT_THROW(s.add_step(SimTime{3.0}, 1.5), Error);  // bad fraction
  // A rejected append must leave the schedule intact and usable.
  s.add_step(SimTime{3.0}, 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_at(SimTime{2.5}), 0.1);
  EXPECT_DOUBLE_EQ(s.fraction_at(SimTime{3.5}), 0.5);
}

TEST(Availability, RebasedShiftsTheOriginToZero) {
  const auto schedule = AvailabilitySchedule::steps({{SimTime::zero(), 1.0},
                                                     {SimTime{2.0}, 0.25},
                                                     {SimTime{5.0}, 0.75}});
  // Rebase into the middle of the 0.25 segment: the new schedule starts in
  // that segment and every later step shifts left by the origin.
  const auto rebased = schedule.rebased(SimTime{3.0});
  EXPECT_DOUBLE_EQ(rebased.fraction_at(SimTime::zero()), 0.25);
  EXPECT_DOUBLE_EQ(rebased.fraction_at(SimTime{1.9}), 0.25);
  EXPECT_DOUBLE_EQ(rebased.fraction_at(SimTime{2.0}), 0.75);
  // Agreement with the original at arbitrary offsets.
  for (double dt = 0.0; dt < 6.0; dt += 0.37) {
    EXPECT_DOUBLE_EQ(rebased.fraction_at(SimTime{dt}),
                     schedule.fraction_at(SimTime{3.0 + dt}))
        << "offset " << dt;
  }
}

TEST(Availability, RebasedAtStepBoundaryAndZero) {
  const auto schedule = AvailabilitySchedule::steps(
      {{SimTime::zero(), 0.5}, {SimTime{1.0}, 1.0}});
  // Origin exactly on a step: that step becomes t=0; no duplicate steps.
  const auto at_step = schedule.rebased(SimTime{1.0});
  EXPECT_DOUBLE_EQ(at_step.fraction_at(SimTime::zero()), 1.0);
  EXPECT_EQ(at_step.raw_steps().size(), 1u);
  // Origin zero is the identity.
  const auto at_zero = schedule.rebased(SimTime::zero());
  EXPECT_EQ(at_zero.raw_steps(), schedule.raw_steps());
  EXPECT_THROW(schedule.rebased(SimTime{-1.0}), Error);
}

TEST(Availability, RebasedPreservesFinishTimes) {
  const auto schedule = AvailabilitySchedule::steps({{SimTime::zero(), 1.0},
                                                     {SimTime{1.0}, 0.2},
                                                     {SimTime{4.0}, 1.0}});
  const SimTime origin{2.5};
  const auto rebased = schedule.rebased(origin);
  for (double work = 0.1; work < 3.0; work += 0.3) {
    const auto direct = schedule.finish_time(origin, Seconds{work});
    const auto shifted = rebased.finish_time(SimTime::zero(), Seconds{work});
    EXPECT_NEAR((direct - origin).value(), shifted.seconds(), 1e-12)
        << "work " << work;
  }
}

TEST(Availability, EqualityIgnoresTheQueryCursor) {
  const auto a = AvailabilitySchedule::steps(
      {{SimTime::zero(), 1.0}, {SimTime{2.0}, 0.5}});
  auto b = a;
  // Move b's cached query cursor to the last segment; the schedules are
  // still the same piecewise function, so they must still compare equal
  // and digest identically (the serving memo cache depends on this).
  (void)b.fraction_at(SimTime{10.0});
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.digest(0x1234), b.digest(0x1234));

  const auto c = AvailabilitySchedule::steps(
      {{SimTime::zero(), 1.0}, {SimTime{2.0}, 0.25}});
  EXPECT_FALSE(a == c);
  EXPECT_NE(a.digest(0x1234), c.digest(0x1234));
  // Default-constructed means fully available forever — equal to the
  // explicit constant(1.0), not to any stepped schedule.
  EXPECT_TRUE(AvailabilitySchedule{} == AvailabilitySchedule::constant(1.0));
  EXPECT_FALSE(AvailabilitySchedule{} == a);
}

TEST(Availability, DigestSeparatesTimeFromFraction) {
  // (t=0, f=1), (t=1, f=0.5) vs (t=0, f=1), (t=0.5, f=1): same multiset of
  // doubles in different roles must not collide (the fold interleaves
  // time-bits then fraction-bits per step).
  const auto a = AvailabilitySchedule::steps(
      {{SimTime::zero(), 1.0}, {SimTime{1.0}, 0.5}});
  const auto b = AvailabilitySchedule::steps(
      {{SimTime::zero(), 1.0}, {SimTime{0.5}, 1.0}});
  EXPECT_NE(a.digest(0), b.digest(0));
}

TEST(Availability, RejectsBadInputs) {
  EXPECT_THROW(AvailabilitySchedule::constant(1.5), Error);
  EXPECT_THROW(AvailabilitySchedule::constant(-0.1), Error);
  EXPECT_THROW(AvailabilitySchedule::steps({}), Error);
  EXPECT_THROW(
      AvailabilitySchedule::steps({{SimTime{1.0}, 1.0}}),  // not at t=0
      Error);
  EXPECT_THROW(AvailabilitySchedule::steps(
                   {{SimTime::zero(), 1.0}, {SimTime::zero(), 0.5}}),
               Error);
}

// Property: finish_time and work_done are inverses on random schedules.
class AvailabilityRoundTrip : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AvailabilityRoundTrip, FinishTimeMatchesWorkDone) {
  Rng rng(GetParam());
  std::vector<std::pair<SimTime, double>> steps;
  double t = 0.0;
  steps.emplace_back(SimTime::zero(), rng.uniform(0.1, 1.0));
  for (int i = 0; i < 8; ++i) {
    t += rng.uniform(0.1, 2.0);
    steps.emplace_back(SimTime{t}, rng.uniform(0.1, 1.0));
  }
  const auto schedule = AvailabilitySchedule::steps(std::move(steps));

  for (int trial = 0; trial < 20; ++trial) {
    const SimTime start{rng.uniform(0.0, 10.0)};
    const Seconds work{rng.uniform(0.01, 5.0)};
    const SimTime finish = schedule.finish_time(start, work);
    ASSERT_LT(finish, SimTime::infinity());
    // The integral of availability over [start, finish) equals the work.
    EXPECT_NEAR(schedule.work_done(start, finish).value(), work.value(),
                1e-9);
    // And monotonicity: more work never finishes earlier.
    const SimTime finish2 = schedule.finish_time(start, work + Seconds{0.1});
    EXPECT_GE(finish2, finish);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvailabilityRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Property: the cached-cursor segment lookup (fraction_at and the loop
// starts inside finish_time/work_done) agrees with a naive linear scan for
// arbitrary, non-monotone query orders — the cursor is a pure cache.
class AvailabilityCursor : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AvailabilityCursor, MatchesLinearScanInRandomOrder) {
  Rng rng(GetParam());
  std::vector<std::pair<SimTime, double>> steps;
  double t = 0.0;
  steps.emplace_back(SimTime::zero(), rng.uniform(0.0, 1.0));
  for (int i = 0; i < 12; ++i) {
    t += rng.uniform(0.05, 1.5);
    steps.emplace_back(SimTime{t}, rng.uniform(0.0, 1.0));
  }
  const auto schedule = AvailabilitySchedule::steps(steps);

  const auto linear_fraction = [&](SimTime q) {
    double f = steps.front().second;
    for (const auto& [at, frac] : steps) {
      if (at <= q) f = frac;
    }
    return f;
  };

  // Random (forward and backward) queries against the same instance.
  for (int trial = 0; trial < 200; ++trial) {
    const SimTime q{rng.uniform(0.0, t + 2.0)};
    EXPECT_DOUBLE_EQ(schedule.fraction_at(q), linear_fraction(q));
  }
  // Exact step boundaries, walked backwards to defeat the forward cursor.
  for (std::size_t i = steps.size(); i-- > 0;) {
    EXPECT_DOUBLE_EQ(schedule.fraction_at(steps[i].first), steps[i].second);
  }
  // work_done stitched over random interior cuts equals the whole interval
  // even when the cursor was just parked far ahead.
  for (int trial = 0; trial < 50; ++trial) {
    const SimTime a{rng.uniform(0.0, t)};
    const SimTime b{rng.uniform(a.seconds(), t + 1.0)};
    const SimTime mid{rng.uniform(a.seconds(), b.seconds())};
    (void)schedule.fraction_at(SimTime{t + 2.0});  // park the cursor late
    EXPECT_NEAR(schedule.work_done(a, mid).value() +
                    schedule.work_done(mid, b).value(),
                schedule.work_done(a, b).value(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvailabilityCursor,
                         ::testing::Values(7, 11, 19, 23));

}  // namespace
}  // namespace isp::sim
