// Multi-tenant serving layer: admission control, weighted fair shares,
// Eq.1 placement, and the wave-batched deterministic serving loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "runtime/active_runtime.hpp"
#include "serve/admission.hpp"
#include "serve/fleet.hpp"
#include "serve/memo.hpp"
#include "serve/observe.hpp"
#include "serve/server.hpp"
#include "sim/availability.hpp"
#include "system/model.hpp"

namespace {

using namespace isp;

serve::QueuedJob job_for(std::uint64_t id, std::uint32_t tenant) {
  serve::QueuedJob j;
  j.id = id;
  j.tenant = tenant;
  j.arrival = SimTime{static_cast<double>(id) * 1e-3};
  return j;
}

// --- Admission / WFQ properties (pure scheduler, no simulations) ---------

TEST(Admission, RejectsWithTypedOverloadedStatus) {
  serve::AdmissionController admission(
      {serve::TenantConfig{.weight = 1.0, .queue_depth = 2}});
  EXPECT_TRUE(admission.offer(job_for(0, 0)).is_ok());
  EXPECT_TRUE(admission.offer(job_for(1, 0)).is_ok());
  const auto status = admission.offer(job_for(2, 0));
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::Overloaded);
  EXPECT_EQ(admission.queued(0), 2u);  // the rejected job never queued
}

TEST(Admission, EveryOfferAccountedExactlyOnce) {
  serve::AdmissionController admission(
      {serve::TenantConfig{.weight = 1.0, .queue_depth = 3},
       serve::TenantConfig{.weight = 2.0, .queue_depth = 1}});
  const std::uint64_t offers = 40;
  for (std::uint64_t i = 0; i < offers; ++i) {
    (void)admission.offer(job_for(i, i % 2 == 0 ? 0 : 1));
    if (i % 5 == 4) (void)admission.pick();  // drain a little
  }
  std::uint64_t offered = 0, admitted = 0, rejected = 0;
  for (std::uint32_t t = 0; t < 2; ++t) {
    const auto& s = admission.stats(t);
    offered += s.offered;
    admitted += s.admitted;
    rejected += s.rejected;
    EXPECT_EQ(s.offered, s.admitted + s.rejected) << "tenant " << t;
  }
  EXPECT_EQ(offered, offers);
  EXPECT_EQ(admitted + rejected, offers);
}

TEST(Admission, WeightedSharesConvergeToWeightsWithinOneJob) {
  const std::vector<double> weights = {1.0, 2.0, 4.0};
  std::vector<serve::TenantConfig> tenants;
  for (const double w : weights) {
    tenants.push_back(serve::TenantConfig{.weight = w, .queue_depth = 4});
  }
  serve::AdmissionController admission(tenants);

  // Keep every tenant backlogged; dispatch a multiple of the weight total.
  const std::uint64_t picks = 70;  // 10 * (1 + 2 + 4)
  std::uint64_t next_id = 0;
  const auto refill = [&] {
    for (std::uint32_t t = 0; t < tenants.size(); ++t) {
      while (admission.queued(t) < 2) {
        ASSERT_TRUE(admission.offer(job_for(next_id++, t)).is_ok());
      }
    }
  };
  for (std::uint64_t i = 0; i < picks; ++i) {
    refill();
    const auto job = admission.pick();
    ASSERT_TRUE(job.has_value());
  }
  const double weight_sum = 7.0;
  for (std::uint32_t t = 0; t < tenants.size(); ++t) {
    const double expected =
        static_cast<double>(picks) * weights[t] / weight_sum;
    const double got = static_cast<double>(admission.stats(t).dispatched);
    EXPECT_LE(std::abs(got - expected), 1.0)
        << "tenant " << t << " dispatched " << got << ", expected "
        << expected;
  }
}

TEST(Admission, NoTenantStarvesUnderSaturation) {
  // A 1-weight tenant against two 50-weight tenants, all permanently
  // backlogged: the light tenant's virtual finish tag advances only when it
  // is served, so it must appear at least once every ~sum(w)/w_min picks.
  std::vector<serve::TenantConfig> tenants = {
      serve::TenantConfig{.weight = 1.0, .queue_depth = 4},
      serve::TenantConfig{.weight = 50.0, .queue_depth = 4},
      serve::TenantConfig{.weight = 50.0, .queue_depth = 4}};
  serve::AdmissionController admission(tenants);

  std::uint64_t next_id = 0;
  std::uint64_t since_light = 0, max_gap = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    for (std::uint32_t t = 0; t < tenants.size(); ++t) {
      while (admission.queued(t) < 2) {
        ASSERT_TRUE(admission.offer(job_for(next_id++, t)).is_ok());
      }
    }
    const auto job = admission.pick();
    ASSERT_TRUE(job.has_value());
    if (job->tenant == 0) {
      since_light = 0;
    } else {
      max_gap = std::max(max_gap, ++since_light);
    }
  }
  EXPECT_GE(admission.stats(0).dispatched, 9u);   // ~1000 / 101
  EXPECT_LE(max_gap, 102u);                       // ceil(sum(w)/w_min) + 1
}

TEST(Admission, FifoWithinTenant) {
  serve::AdmissionController admission(
      {serve::TenantConfig{.weight = 1.0, .queue_depth = 8}});
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(admission.offer(job_for(i, 0)).is_ok());
  }
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto job = admission.pick();
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->id, i);
  }
  EXPECT_FALSE(admission.pick().has_value());
}

// --- Fleet bookkeeping ---------------------------------------------------

TEST(Fleet, LaneLayoutAndLinkContention) {
  auto config = serve::FleetConfig::make(4, 2);
  config.link_fan_out = 2;
  serve::Fleet fleet(config);
  EXPECT_EQ(fleet.device_count(), 4u);
  EXPECT_EQ(fleet.lane_count(), 6u);
  EXPECT_FALSE(fleet.is_host_lane(3));
  EXPECT_TRUE(fleet.is_host_lane(4));

  // Within the fan-out every device keeps its provisioned share; beyond it
  // the shares degrade as fan_out / busy.
  EXPECT_DOUBLE_EQ(fleet.contended_link_share(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(fleet.contended_link_share(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(fleet.contended_link_share(0, 4), 0.5);

  fleet.occupy(0, SimTime::zero(), Seconds{2.0});
  fleet.occupy(0, SimTime{2.0}, Seconds{1.0});
  EXPECT_EQ(fleet.busy_until(0), SimTime{3.0});
  EXPECT_EQ(fleet.stats(0).jobs, 2u);
  EXPECT_EQ(fleet.busy_devices_after(SimTime{2.5}), 1u);
  EXPECT_EQ(fleet.busy_devices_after(SimTime{3.5}), 0u);
  EXPECT_THROW(fleet.occupy(0, SimTime{1.0}, Seconds{1.0}), Error);
}

// --- Serving loop integration (real engine simulations) ------------------

serve::ServeConfig small_config(std::size_t fleet, double load,
                                std::uint64_t total_jobs, unsigned jobs) {
  serve::ServeConfig config;
  config.fleet = serve::FleetConfig::make(fleet);
  config.tenants = {serve::TenantConfig{.weight = 1.0, .queue_depth = 4},
                    serve::TenantConfig{.weight = 2.0, .queue_depth = 4}};
  config.job_classes = {
      serve::JobClass{.app = "tpch-q6", .size_factor = 0.05}};
  config.total_jobs = total_jobs;
  config.offered_load = load;
  config.jobs = jobs;
  return config;
}

TEST(Serve, ReportIsDeterministicAcrossRunsAndJobs) {
  const auto a = serve::serve(small_config(2, 2.0, 12, 1));
  const auto b = serve::serve(small_config(2, 2.0, 12, 1));
  const auto c = serve::serve(small_config(2, 2.0, 12, 3));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest, c.digest);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_json(), c.to_json());  // byte-identical, --jobs 1 vs 3
}

TEST(Serve, EveryJobAccountedAndOutcomesConsistent) {
  const auto report = serve::serve(small_config(2, 4.0, 16, 2));
  EXPECT_EQ(report.admitted + report.rejected, report.total_jobs);
  EXPECT_EQ(report.completed, report.admitted);
  EXPECT_EQ(report.csd_jobs + report.host_jobs, report.completed);

  std::uint64_t offered = 0;
  for (const auto& s : report.tenants) {
    EXPECT_EQ(s.offered, s.admitted + s.rejected);
    EXPECT_EQ(s.dispatched, s.completed);
    offered += s.offered;
  }
  EXPECT_EQ(offered, report.total_jobs);

  std::uint64_t lane_jobs = 0;
  for (const auto& s : report.lanes) lane_jobs += s.jobs;
  EXPECT_EQ(lane_jobs, report.completed);

  for (const auto& o : report.outcomes) {
    if (o.rejected) {
      EXPECT_EQ(o.lane, -1);
      continue;
    }
    EXPECT_GE(o.lane, 0);
    EXPECT_GE(o.start, o.arrival);
    EXPECT_GT(o.service.value(), 0.0);
    EXPECT_GE(o.latency, o.service);
  }
}

TEST(Serve, SaturationRejectsButNeverSilently) {
  // Load far beyond one device's capacity and depth-1 queues: admission
  // must reject, and every rejection must be visible in the counters.
  auto config = small_config(1, 50.0, 24, 2);
  for (auto& t : config.tenants) t.queue_depth = 1;
  const auto report = serve::serve(config);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_GT(report.rejection_rate, 0.0);
  EXPECT_EQ(report.admitted + report.rejected, report.total_jobs);
  std::uint64_t rejected_outcomes = 0;
  for (const auto& o : report.outcomes) rejected_outcomes += o.rejected;
  EXPECT_EQ(rejected_outcomes, report.rejected);
}

TEST(Serve, ThroughputScalesWithFleetSize) {
  // Saturating load: a 4-device fleet must clearly out-serve one device.
  const auto one = serve::serve(small_config(1, 20.0, 16, 2));
  const auto four = serve::serve(small_config(4, 20.0, 16, 2));
  EXPECT_GT(four.throughput, one.throughput * 1.5)
      << "fleet 4: " << four.throughput << " jobs/s, fleet 1: "
      << one.throughput << " jobs/s";
}

TEST(Serve, LatencyRespectsQueueBounds) {
  const auto report = serve::serve(small_config(2, 20.0, 24, 2));
  Seconds max_service = Seconds::zero();
  for (const auto& o : report.outcomes) {
    if (!o.rejected) max_service = std::max(max_service, o.service);
  }
  // An admitted job has at most sum(queue_depth) jobs ahead of it across
  // the bounded queues; with a generous scheduling constant that bounds the
  // p99 latency by a small multiple of the worst service time.
  std::size_t depth_sum = 0;
  std::size_t t = 0;
  for (const auto& s : report.tenants) {
    (void)s;
    depth_sum += 4;  // small_config queue_depth
    ++t;
  }
  const double bound =
      static_cast<double>(depth_sum + t + 2) * 2.0 * max_service.value();
  EXPECT_LE(report.p99_latency.value(), bound);
  EXPECT_LE(report.p50_latency, report.p99_latency);
}

TEST(Serve, WeightedTenantSharesUnderSaturation) {
  // Under heavy overload both tenants offer far more than capacity, so
  // dispatch order is WFQ-driven: the weight-2 tenant must complete more
  // than the weight-1 tenant.
  auto config = small_config(2, 50.0, 32, 2);
  config.tenants = {serve::TenantConfig{.weight = 1.0, .queue_depth = 8},
                    serve::TenantConfig{.weight = 2.0, .queue_depth = 8}};
  const auto report = serve::serve(config);
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_GT(report.tenants[1].completed, report.tenants[0].completed);
}

// --- Fault interop: the PR 1-2 degradation ladder inside the fleet -------

TEST(Serve, FaultInteropPowerLossMidSweepStaysDeterministic) {
  // Dry run: find an admitted CSD-placed job to arm the power cut in.
  auto config = small_config(2, 4.0, 12, 1);
  config.fault.set_rate_all(0.02);  // point faults on every dispatched job
  const auto dry = serve::serve(config);
  std::int64_t victim = -1;
  for (const auto& o : dry.outcomes) {
    if (!o.rejected && !o.on_host) {
      victim = static_cast<std::int64_t>(o.id);
      break;
    }
  }
  ASSERT_GE(victim, 0) << "no CSD-placed job to arm the power cut in";

  config.power_loss_job = victim;
  config.power_loss_after = 4;
  const auto a = serve::serve(config);
  const auto& hit = a.outcomes[static_cast<std::size_t>(victim)];
  EXPECT_FALSE(hit.rejected);
  // The armed job rides the PR 1-2 recovery ladder: it must survive the cut
  // (power-cycle + FTL remount, possibly a migration back to the host) and
  // still complete -- and the recovery must cost virtual time.
  EXPECT_GE(hit.power_losses, 1u);
  EXPECT_GT(hit.service, dry.outcomes[static_cast<std::size_t>(victim)].service);
  EXPECT_EQ(a.completed, a.admitted);

  // Crash handling must not break the determinism contract.
  const auto b = serve::serve(config);
  auto parallel = config;
  parallel.jobs = 3;
  const auto c = serve::serve(parallel);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest, c.digest);
  EXPECT_EQ(a.to_json(), c.to_json());
}

// --- Observability: snapshots, metrics, zero-virtual-cost ----------------

/// Snapshot invariants that must hold at *every* row, not just at the end:
/// offered == admitted + rejected and the conservation identity
/// admitted == completed + deadline_missed + retry_exhausted + in_flight +
/// queued, with every column monotone where the serving semantics demand it.
void expect_snapshot_invariants(const serve::ServeReport& report) {
  const auto& s = report.snapshots;
  ASSERT_GT(s.rows(), 0u);
  std::uint64_t prev_offered = 0, prev_completed = 0;
  for (std::size_t row = 0; row < s.rows(); ++row) {
    const auto offered = s.value(row, "offered");
    const auto admitted = s.value(row, "admitted");
    const auto rejected = s.value(row, "rejected");
    const auto completed = s.value(row, "completed");
    const auto in_flight = s.value(row, "in_flight");
    const auto queued = s.value(row, "queued");
    const auto deadline_missed = s.value(row, "deadline_missed");
    const auto retry_exhausted = s.value(row, "retry_exhausted");
    EXPECT_EQ(offered, admitted + rejected) << "row " << row;
    EXPECT_EQ(admitted, completed + deadline_missed + retry_exhausted +
                            in_flight + queued)
        << "row " << row;
    EXPECT_GE(offered, prev_offered) << "row " << row;
    EXPECT_GE(completed, prev_completed) << "row " << row;
    prev_offered = offered;
    prev_completed = completed;
  }
  // The final row accounts for every job the run offered.  The "rejected"
  // column counts both Overloaded and DeadlineExceeded rejections.
  const std::size_t last = s.rows() - 1;
  EXPECT_EQ(s.value(last, "offered"), report.total_jobs);
  EXPECT_EQ(s.value(last, "completed"), report.completed);
  EXPECT_EQ(s.value(last, "rejected"),
            report.rejected + report.deadline_rejected);
  EXPECT_EQ(s.value(last, "deadline_missed"), report.deadline_missed);
  EXPECT_EQ(s.value(last, "retry_exhausted"), report.retry_exhausted);
  EXPECT_EQ(s.value(last, "retried"), report.retried);
  EXPECT_EQ(s.value(last, "in_flight"), 0u);
  EXPECT_EQ(s.value(last, "queued"), 0u);
}

TEST(ServeObs, SnapshotAccountingInvariantsHold) {
  expect_snapshot_invariants(serve::serve(small_config(2, 4.0, 16, 2)));
}

TEST(ServeObs, SnapshotInvariantsHoldUnderSaturation) {
  auto config = small_config(1, 50.0, 24, 2);
  for (auto& t : config.tenants) t.queue_depth = 1;
  const auto report = serve::serve(config);
  EXPECT_GT(report.rejected, 0u);  // saturation actually happened
  expect_snapshot_invariants(report);
}

TEST(ServeObs, SnapshotInvariantsHoldThroughMidSweepPowerLoss) {
  auto config = small_config(2, 4.0, 12, 2);
  config.fault.set_rate_all(0.02);
  const auto dry = serve::serve(config);
  for (const auto& o : dry.outcomes) {
    if (!o.rejected && !o.on_host) {
      config.power_loss_job = static_cast<std::int64_t>(o.id);
      break;
    }
  }
  ASSERT_GE(config.power_loss_job, 0);
  config.power_loss_after = 4;
  const auto report = serve::serve(config);
  EXPECT_GT(report.outcomes[static_cast<std::size_t>(config.power_loss_job)]
                .power_losses,
            0u);
  expect_snapshot_invariants(report);
}

TEST(ServeObs, MetricsAgreeWithReportAggregates) {
  const auto report = serve::serve(small_config(2, 4.0, 16, 2));
  const auto& m = report.metrics;
  EXPECT_EQ(m.counter_value("serve.offered"), report.total_jobs);
  EXPECT_EQ(m.counter_value("serve.admitted"), report.admitted);
  EXPECT_EQ(m.counter_value("serve.rejected"), report.rejected);
  EXPECT_EQ(m.counter_value("serve.completed"), report.completed);
  EXPECT_EQ(m.counter_value("serve.jobs.csd"), report.csd_jobs);
  EXPECT_EQ(m.counter_value("serve.jobs.host"), report.host_jobs);
  // Engine-side merged counters: every completed job records one run.
  EXPECT_EQ(m.counter_value("engine.runs"), report.completed);
  const auto* latency = m.find_histogram("serve.latency_s");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), report.completed);
  // Per-tenant counters mirror the TenantStats rows.
  for (std::size_t t = 0; t < report.tenants.size(); ++t) {
    const std::string p = "serve.tenant." + std::to_string(t) + ".";
    EXPECT_EQ(m.counter_value(p + "offered"), report.tenants[t].offered);
    EXPECT_EQ(m.counter_value(p + "completed"), report.tenants[t].completed);
  }
  // Per-lane counters mirror the LaneStats rows.
  for (std::size_t lane = 0; lane < report.lanes.size(); ++lane) {
    const std::string p = "serve.lane." + std::to_string(lane) + ".";
    EXPECT_EQ(m.counter_value(p + "jobs"), report.lanes[lane].jobs);
  }
}

TEST(ServeObs, ReportPercentilesMatchHistogramWithinErrorBound) {
  const auto report = serve::serve(small_config(2, 4.0, 16, 2));
  const auto* h = report.metrics.find_histogram("serve.latency_s");
  ASSERT_NE(h, nullptr);
  ASSERT_GT(h->count(), 0u);
  const double bound = h->options().growth - 1.0;  // relative error bound
  const double p50 = report.p50_latency.value();
  const double p99 = report.p99_latency.value();
  EXPECT_LE(std::abs(h->percentile(0.50) - p50) / p50, bound);
  EXPECT_LE(std::abs(h->percentile(0.99) - p99) / p99, bound);
}

// --- Circuit breaker state machine (pure virtual-time unit tests) --------

serve::BreakerConfig tiny_breaker() {
  serve::BreakerConfig config;
  config.threshold = 5.0;
  config.decay_tau = Seconds{2.0};
  config.cooldown = Seconds{1.0};
  config.cooldown_multiplier = 2.0;
  return config;
}

TEST(Breaker, TripsAtThresholdAndGatesUntilCooldownEnd) {
  serve::CircuitBreaker brk(tiny_breaker());
  EXPECT_EQ(brk.state(), serve::BreakerState::Closed);
  EXPECT_EQ(brk.ready_at(), SimTime::zero());

  brk.record_outcome(SimTime{1.0}, 3.0);  // below threshold: stays Closed
  EXPECT_EQ(brk.state(), serve::BreakerState::Closed);
  brk.record_outcome(SimTime{1.0}, 3.0);  // 6.0 >= 5.0: Open at t=1
  EXPECT_EQ(brk.state(), serve::BreakerState::Open);
  EXPECT_EQ(brk.ready_at(), SimTime{2.0});  // cooldown 1 s

  ASSERT_EQ(brk.transitions().size(), 1u);
  EXPECT_EQ(brk.transitions()[0].from, serve::BreakerState::Closed);
  EXPECT_EQ(brk.transitions()[0].to, serve::BreakerState::Open);
  EXPECT_DOUBLE_EQ(brk.transitions()[0].time.seconds(), 1.0);
}

TEST(Breaker, ScoreDecaysExponentially) {
  serve::CircuitBreaker brk(tiny_breaker());
  brk.record_outcome(SimTime{0.0}, 4.0);
  EXPECT_DOUBLE_EQ(brk.score(SimTime{0.0}), 4.0);
  // One decay_tau later the score is down by exactly 1/e (const view —
  // asking must not mutate).
  EXPECT_NEAR(brk.score(SimTime{2.0}), 4.0 / std::exp(1.0), 1e-12);
  EXPECT_NEAR(brk.score(SimTime{2.0}), 4.0 / std::exp(1.0), 1e-12);
  // Decay applies before accumulation: two below-threshold outcomes far
  // apart never trip the breaker.
  brk.record_outcome(SimTime{100.0}, 4.0);
  EXPECT_EQ(brk.state(), serve::BreakerState::Closed);
}

TEST(Breaker, CleanProbeReclosesAndResetsCooldown) {
  serve::CircuitBreaker brk(tiny_breaker());
  brk.record_outcome(SimTime{1.0}, 10.0);  // Open at 1, ready at 2
  brk.begin_probe(SimTime{2.5});           // first dispatch past ready_at
  EXPECT_EQ(brk.state(), serve::BreakerState::HalfOpen);
  EXPECT_TRUE(brk.probe_in_flight());

  brk.probe_result(SimTime{3.5}, /*success=*/true);
  EXPECT_EQ(brk.state(), serve::BreakerState::Closed);
  EXPECT_FALSE(brk.probe_in_flight());
  EXPECT_EQ(brk.ready_at(), SimTime::zero());
  EXPECT_DOUBLE_EQ(brk.score(SimTime{3.5}), 0.0);  // clean slate

  // The next trip uses the *reset* cooldown (1 s), not a doubled one.
  brk.record_outcome(SimTime{10.0}, 10.0);
  EXPECT_EQ(brk.ready_at(), SimTime{11.0});
}

TEST(Breaker, FailedProbeReopensWithDoubledCooldown) {
  serve::CircuitBreaker brk(tiny_breaker());
  brk.record_outcome(SimTime{1.0}, 10.0);  // Open at 1, ready at 2
  brk.begin_probe(SimTime{2.0});
  brk.probe_result(SimTime{3.0}, /*success=*/false);
  EXPECT_EQ(brk.state(), serve::BreakerState::Open);
  EXPECT_EQ(brk.ready_at(), SimTime{5.0});  // 3 + 2 * 1 s

  // A second failed probe doubles again: geometric backoff.
  brk.begin_probe(SimTime{5.0});
  brk.probe_result(SimTime{6.0}, /*success=*/false);
  EXPECT_EQ(brk.ready_at(), SimTime{10.0});  // 6 + 4 * 1 s

  // Closed -> Open -> HalfOpen -> Open -> HalfOpen -> Open: 5 transitions.
  EXPECT_EQ(brk.transitions().size(), 5u);
}

TEST(Breaker, AbortedProbeClearsInFlightWithoutResolving) {
  serve::CircuitBreaker brk(tiny_breaker());
  brk.record_outcome(SimTime{1.0}, 10.0);
  brk.begin_probe(SimTime{2.0});
  brk.abort_probe();  // the probe's lane died mid-service
  EXPECT_FALSE(brk.probe_in_flight());
  EXPECT_EQ(brk.state(), serve::BreakerState::HalfOpen);
}

TEST(Breaker, DisabledBreakerNeverOpens) {
  auto config = tiny_breaker();
  config.enabled = false;
  serve::CircuitBreaker brk(config);
  brk.record_outcome(SimTime{1.0}, 1e9);
  EXPECT_EQ(brk.state(), serve::BreakerState::Closed);
  EXPECT_EQ(brk.ready_at(), SimTime::zero());
  EXPECT_TRUE(brk.transitions().empty());
}

// --- Deadline admission and retry accounting (pure scheduler) ------------

TEST(Admission, DeadlineBoundaryAdmitsAndStrictlyPastRejects) {
  serve::AdmissionController admission({serve::TenantConfig{
      .weight = 1.0, .queue_depth = 4, .slo = Seconds{1.0}}});
  // Boundary: earliest feasible start exactly at arrival + slo is fine.
  auto job = job_for(0, 0);
  job.arrival = SimTime{2.0};
  EXPECT_TRUE(admission.offer(job, SimTime{3.0}).is_ok());
  // Strictly past the deadline: typed DeadlineExceeded, not Overloaded.
  auto late = job_for(1, 0);
  late.arrival = SimTime{2.0};
  const auto status = admission.offer(late, SimTime{3.0 + 1e-9});
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(admission.stats(0).deadline_rejected, 1u);
  EXPECT_EQ(admission.stats(0).offered, 2u);
  EXPECT_EQ(admission.queued(0), 1u);

  // The admitted job carries its stamped deadline and ready time.
  const auto picked = admission.pick();
  ASSERT_TRUE(picked.has_value());
  EXPECT_EQ(picked->deadline, SimTime{3.0});
  EXPECT_EQ(picked->ready, SimTime{2.0});
}

TEST(Admission, RequeueFrontPreservesOrderAndCountsRetry) {
  serve::AdmissionController admission(
      {serve::TenantConfig{.weight = 1.0, .queue_depth = 2}});
  ASSERT_TRUE(admission.offer(job_for(0, 0)).is_ok());
  ASSERT_TRUE(admission.offer(job_for(1, 0)).is_ok());

  auto lost = admission.pick();
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(lost->id, 0u);
  // The lane died under job 0: it re-enters at the *head*, ahead of job 1,
  // even though the queue is already at its depth bound.
  lost->attempt = 1;
  lost->ready = SimTime{5.0};
  admission.requeue_front(*lost);
  EXPECT_EQ(admission.queued(0), 2u);
  EXPECT_EQ(admission.stats(0).retried, 1u);

  const auto again = admission.pick();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->id, 0u);
  EXPECT_EQ(again->attempt, 1u);
  EXPECT_EQ(again->ready, SimTime{5.0});
  // Both the original dispatch and the re-dispatch counted.
  EXPECT_EQ(admission.stats(0).dispatched, 2u);
}

TEST(Admission, ReturnFrontUndoesThePick) {
  serve::AdmissionController admission(
      {serve::TenantConfig{.weight = 1.0, .queue_depth = 4}});
  ASSERT_TRUE(admission.offer(job_for(0, 0)).is_ok());
  const auto job = admission.pick();
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(admission.stats(0).dispatched, 1u);
  admission.return_front(*job);  // no free lane this wave: put it back
  EXPECT_EQ(admission.stats(0).dispatched, 0u);
  EXPECT_EQ(admission.queued(0), 1u);
}

// --- Fleet failure domains: kills, retries, deadlines end to end ---------

TEST(ServeChaos, DeviceKillRetriesAndConservesEveryJob) {
  // Kill CSD 0 mid-run: in-flight work on it is lost and re-enqueued;
  // everything still resolves exactly once.
  auto config = small_config(2, 4.0, 16, 2);
  const auto healthy = serve::serve(config);
  config.kill_devices = {serve::KillDevice{
      .device = 0,
      .at = SimTime{healthy.makespan.seconds() * 0.3}}};
  const auto report = serve::serve(config);

  EXPECT_EQ(report.devices_failed, 1u);
  EXPECT_FALSE(report.lanes[0].died_at == SimTime::infinity());
  EXPECT_EQ(report.admitted + report.rejected + report.deadline_rejected,
            report.total_jobs);
  EXPECT_EQ(report.admitted,
            report.completed + report.deadline_missed + report.retry_exhausted);

  std::uint64_t lost = 0, retries = 0;
  for (const auto& o : report.outcomes) {
    lost += o.lost_attempts.size();
    retries += o.retries;
    for (const auto& a : o.lost_attempts) {
      EXPECT_EQ(a.lane, 0u);  // only CSD 0 died
      EXPECT_LT(a.start, a.end);
    }
    // A completed retry can never start before the death that caused it.
    if (o.completed() && o.retries > 0) {
      EXPECT_GE(o.start, o.lost_attempts.back().end);
    }
  }
  EXPECT_EQ(lost, report.lost_in_flight);
  EXPECT_EQ(retries, report.retried);
  EXPECT_EQ(report.lanes[0].lost_jobs, lost);
  expect_snapshot_invariants(report);
}

TEST(ServeChaos, KillScheduleStaysDeterministicAcrossJobs) {
  auto config = small_config(2, 4.0, 16, 1);
  config.kill_devices = {
      serve::KillDevice{.device = 0, .at = SimTime{2.0}}};
  const auto a = serve::serve(config);
  auto parallel = config;
  parallel.jobs = 3;
  const auto b = serve::serve(parallel);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(ServeChaos, AllLanesDeadDrainsQueueLoudly) {
  // Both CSDs die early and there is no host fallback: admitted jobs that
  // cannot ever start must be abandoned as retry_exhausted, never dropped.
  auto config = small_config(2, 4.0, 12, 2);
  config.fleet = serve::FleetConfig::make(2, /*host_lanes=*/0);
  config.kill_devices = {
      serve::KillDevice{.device = 0, .at = SimTime{1.5}},
      serve::KillDevice{.device = 1, .at = SimTime{1.5}}};
  const auto report = serve::serve(config);

  EXPECT_EQ(report.devices_failed, 2u);
  EXPECT_GT(report.retry_exhausted, 0u);
  EXPECT_EQ(report.admitted,
            report.completed + report.deadline_missed + report.retry_exhausted);
  for (const auto& o : report.outcomes) {
    if (o.retry_exhausted) {
      // Abandonment is an explicit resolution instant, not a dangling job.
      EXPECT_GE(o.resolved, o.arrival);
    }
  }
  expect_snapshot_invariants(report);
}

TEST(ServeChaos, ZeroRetryBudgetAbandonsOnFirstLoss) {
  auto config = small_config(2, 4.0, 16, 2);
  const auto healthy = serve::serve(config);
  config.kill_devices = {serve::KillDevice{
      .device = 0, .at = SimTime{healthy.makespan.seconds() * 0.3}}};
  config.retry_budget = 0;
  const auto report = serve::serve(config);
  EXPECT_EQ(report.retried, 0u);
  // Every lost in-flight attempt becomes a retry_exhausted outcome.
  EXPECT_EQ(report.lost_in_flight, report.retry_exhausted);
  EXPECT_EQ(report.admitted,
            report.completed + report.deadline_missed + report.retry_exhausted);
}

TEST(ServeChaos, TightSloRejectsWithTypedDeadlineStatus) {
  // An SLO far below the queue wait at this load (arrivals ~8x faster than
  // the two lanes can drain): admission must reject with DeadlineExceeded
  // (typed, distinct from Overloaded backpressure).
  auto config = small_config(1, 20.0, 16, 2);
  for (auto& t : config.tenants) t.slo = Seconds{0.1};
  const auto report = serve::serve(config);
  EXPECT_GT(report.deadline_rejected, 0u);
  EXPECT_EQ(report.admitted + report.rejected + report.deadline_rejected,
            report.total_jobs);
  for (const auto& o : report.outcomes) {
    if (o.deadline_rejected) {
      EXPECT_FALSE(o.rejected);  // the two rejection types never overlap
      EXPECT_EQ(o.resolved, o.arrival);
    }
    if (o.completed() && !o.on_host) {
      // Admitted work respected the SLO: start within arrival + 0.1 s.
      EXPECT_LE(o.start, o.arrival + Seconds{0.1});
    }
  }
  expect_snapshot_invariants(report);
}

TEST(ServeChaos, DeadlineMissedWhileQueuedResolvesLoudly) {
  // An SLO just wide enough to admit borderline jobs on the optimistic
  // earliest-start estimate: by the time WFQ actually dispatches them,
  // earlier picks have claimed the lanes and the deadline has passed.  The
  // miss must be a typed outcome with an explicit resolution instant.
  auto config = small_config(1, 20.0, 24, 2);
  for (auto& t : config.tenants) t.slo = Seconds{0.3};
  const auto report = serve::serve(config);

  EXPECT_GT(report.deadline_missed, 0u);
  EXPECT_EQ(report.admitted,
            report.completed + report.deadline_missed + report.retry_exhausted);
  std::uint64_t missed_outcomes = 0;
  for (const auto& o : report.outcomes) {
    if (!o.deadline_missed) continue;
    ++missed_outcomes;
    EXPECT_FALSE(o.rejected);
    EXPECT_FALSE(o.deadline_rejected);
    EXPECT_EQ(o.lane, -1);  // the job never reached a lane
    // The miss resolves at (or after) the deadline itself.
    EXPECT_GE(o.resolved, o.arrival + Seconds{0.3});
  }
  EXPECT_EQ(missed_outcomes, report.deadline_missed);
  // Misses never count as dispatches: tenant books stay balanced.
  for (const auto& s : report.tenants) {
    EXPECT_EQ(s.dispatched, s.completed + s.retried);
  }
  expect_snapshot_invariants(report);
}

TEST(ServeChaos, FailureDomainCountersMirrorMetrics) {
  auto config = small_config(2, 4.0, 16, 2);
  const auto healthy = serve::serve(config);
  config.kill_devices = {serve::KillDevice{
      .device = 0, .at = SimTime{healthy.makespan.seconds() * 0.3}}};
  const auto report = serve::serve(config);
  const auto& m = report.metrics;
  EXPECT_EQ(m.counter_value("serve.retried"), report.retried);
  EXPECT_EQ(m.counter_value("serve.lost_in_flight"), report.lost_in_flight);
  EXPECT_EQ(m.counter_value("serve.retry_exhausted"), report.retry_exhausted);
  EXPECT_EQ(m.counter_value("serve.devices_failed"), report.devices_failed);
  EXPECT_EQ(m.counter_value("serve.lane.0.lost_jobs"),
            report.lanes[0].lost_jobs);
}

TEST(ServeChaos, CleanRunReportIsIndifferentToFailureKnobs) {
  // With no kills and no SLO, the failure-domain machinery must be pure
  // bookkeeping: changing the retry budget or breaker threshold cannot move
  // a single byte of the report.
  const auto base = serve::serve(small_config(2, 4.0, 12, 2));
  auto config = small_config(2, 4.0, 12, 2);
  config.retry_budget = 7;
  config.breaker.threshold = 2.5;
  const auto tweaked = serve::serve(config);
  EXPECT_EQ(base.digest, tweaked.digest);
  EXPECT_EQ(base.to_json(), tweaked.to_json());
  EXPECT_EQ(base.deadline_missed, 0u);
  EXPECT_EQ(base.retried, 0u);
  EXPECT_EQ(base.devices_failed, 0u);
}

TEST(ServeObs, DisablingObsChangesNothingButOmitsArtifacts) {
  // Two inputs: a clean config, and one with every failure domain armed (a
  // device kill, a power-loss rate and a tenant SLO), whose retries, lost
  // attempts, power cycles and deadline outcomes the obs layer also records.
  const auto clean = small_config(2, 4.0, 12, 2);
  auto failing = clean;
  failing.kill_devices = {serve::KillDevice{.device = 0, .at = SimTime{1.0}}};
  failing.fault.set_rate(fault::Site::PowerLoss, 0.05);
  failing.tenants[1].slo = Seconds{1.0};
  for (auto config : {clean, failing}) {
    SCOPED_TRACE(config.kill_devices.empty() ? "clean" : "failure domains");
    config.obs.enabled = true;
    const auto on = serve::serve(config);
    config.obs.enabled = false;
    const auto off = serve::serve(config);
    // Instrumentation charges no virtual time: the outcome digest and the
    // whole JSON report are bit-identical with obs on and off.
    EXPECT_EQ(on.digest, off.digest);
    EXPECT_EQ(on.to_json(), off.to_json());
    EXPECT_FALSE(on.metrics.empty());
    EXPECT_GT(on.snapshots.rows(), 0u);
    EXPECT_TRUE(off.metrics.empty());
    EXPECT_EQ(off.snapshots.rows(), 0u);
    if (config.kill_devices.empty()) continue;
    // The failure domains must fire for the second input to count.
    std::uint64_t power_losses = 0;
    for (const auto& lane : on.lanes) power_losses += lane.power_losses;
    EXPECT_EQ(on.devices_failed, 1u);
    EXPECT_GT(power_losses, 0u);
    EXPECT_GT(on.deadline_missed + on.deadline_rejected, 0u);
  }
}

// --- Hot-path caches (PR 7): exactness, eviction, epochs -----------------

/// A saturating config the bid and memo caches actually bite on: deep
/// queues, offered load past the fleet's capacity, two job classes.
serve::ServeConfig hot_config(std::size_t fleet, std::uint64_t total_jobs,
                              unsigned jobs) {
  serve::ServeConfig config;
  config.fleet = serve::FleetConfig::make(fleet, 1, 0.0);
  config.tenants = {serve::TenantConfig{.weight = 1.0, .queue_depth = 16},
                    serve::TenantConfig{.weight = 2.0, .queue_depth = 16}};
  config.job_classes = {serve::JobClass{.app = "tpch-q6", .size_factor = 0.1},
                        serve::JobClass{.app = "kmeans", .size_factor = 0.05}};
  config.total_jobs = total_jobs;
  config.offered_load = static_cast<double>(fleet) * 2.0;
  config.jobs = jobs;
  return config;
}

/// The full externally visible surface of a serve run, for byte-for-byte
/// comparison: JSON report, outcome digest, metrics digest, Perfetto trace.
void expect_identical(const serve::ServeReport& a,
                      const serve::ServeReport& b) {
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.metrics.digest(), b.metrics.digest());
  EXPECT_EQ(serve::to_fleet_trace(a), serve::to_fleet_trace(b));
}

/// Golden digests of one serve run.  `report` and `metrics` are the
/// cache-free reference: recorded when serve() could still run with the lane
/// index, bid cache and memo cache switched off and the engine issuing
/// scalar page writes, at which point both paths agreed byte for byte.  The
/// caches and the span data plane are now unconditional, so these constants
/// are the reference arm they are checked against.  The report digest omits
/// the Eq.1 profit and the exported text, so the FNV-1a of the three export
/// documents (fleet trace, metrics JSON, report JSON) is pinned beside it.
struct Golden {
  std::uint64_t report;
  std::uint64_t metrics;
  std::uint64_t trace;         // serve::to_fleet_trace
  std::uint64_t metrics_json;  // serve::metrics_json
  std::uint64_t json;          // ServeReport::to_json
};

void expect_golden(const serve::ServeReport& r, const Golden& g) {
  EXPECT_EQ(r.digest, g.report);
  EXPECT_EQ(r.metrics.digest(), g.metrics);
  EXPECT_EQ(fnv1a(kFnvOffset, serve::to_fleet_trace(r)), g.trace);
  EXPECT_EQ(fnv1a(kFnvOffset, serve::metrics_json(r)), g.metrics_json);
  EXPECT_EQ(fnv1a(kFnvOffset, r.to_json()), g.json);
}

TEST(ServeHotpath, ByteIdenticalOnVsOffVsSerial) {
  auto config = hot_config(3, 24, 2);
  const auto on = serve::serve(config);
  EXPECT_GT(on.sim_cache_hits, 0u);  // the memo must actually engage
  EXPECT_GT(on.bid_cache_hits, 0u);  // and so must the bid cache
  expect_golden(on, {0x29fee9331f60472aULL, 0x0b1ea5fa71344448ULL,
                     0x0675cf73187aff83ULL, 0x8b0098348dc67bf1ULL,
                     0x84e8ff982a2a6381ULL});

  config.jobs = 1;
  expect_identical(on, serve::serve(config));
}

TEST(ServeHotpath, ChaosKillAndPowerLossParity) {
  // The hard case: a device dies mid-run (retries, breaker traffic, lost
  // attempts) while one job takes a mid-sweep power cut and every job runs
  // seeded point faults.  The cached run must match the cache-free golden
  // digests, and serial must agree byte for byte.
  auto config = hot_config(3, 24, 3);
  config.fault.set_rate_all(0.02);
  config.kill_devices = {
      serve::KillDevice{.device = 0, .at = SimTime{3.0}}};
  config.retry_budget = 2;
  config.power_loss_job = 5;
  config.power_loss_after = 3;

  const auto on = serve::serve(config);
  EXPECT_GT(on.bid_cache_hits, 0u);
  expect_golden(on, {0x6c1c29816ed5f910ULL, 0x6dfeea01a83358abULL,
                     0x720e7c059a2378f0ULL, 0xf418168d0a974874ULL,
                     0xe3174c69c6608584ULL});
  config.jobs = 1;
  expect_identical(on, serve::serve(config));
  EXPECT_GT(on.devices_failed, 0u);
}

TEST(ServeHotpath, TinyMemoCapacityEvictsButStaysExact) {
  auto config = hot_config(3, 24, 2);
  const auto roomy = serve::serve(config);
  config.sim_cache_capacity = 2;
  const auto tight = serve::serve(config);
  // FIFO eviction under a two-entry bound: strictly worse hit rate, many
  // evictions, identical bytes.
  EXPECT_GT(tight.sim_cache_evictions, 0u);
  EXPECT_LE(tight.sim_cache_hits, roomy.sim_cache_hits);
  expect_identical(roomy, tight);
}

/// Test-only reference for build_snapshots(): the direct O(rows × jobs)
/// scan, re-walking every outcome at every row instant and classifying each
/// active job by testing the instant against its spans and gaps.
obs::SnapshotSeries scanned_snapshots(const serve::ServeReport& report,
                                      const serve::ObsOptions& options) {
  obs::SnapshotSeries series(std::vector<std::string>{
      "offered", "admitted", "rejected", "completed", "in_flight", "queued",
      "retried", "deadline_missed", "retry_exhausted", "breaker_open_lanes"});
  if (report.outcomes.empty()) return series;
  SimTime end = report.makespan;
  for (const auto& o : report.outcomes) end = std::max(end, o.arrival);
  Seconds interval = options.snapshot_interval;
  if (end.seconds() / interval.value() >
      static_cast<double>(options.max_snapshots)) {
    interval = Seconds{end.seconds() /
                       static_cast<double>(options.max_snapshots)};
  }

  const auto snap_at = [&](SimTime t) {
    std::uint64_t offered = 0, admitted = 0, rejected = 0;
    std::uint64_t completed = 0, in_flight = 0, queued = 0;
    std::uint64_t retried = 0, deadline_missed = 0, retry_exhausted = 0;
    for (const auto& o : report.outcomes) {
      if (o.arrival > t) continue;
      ++offered;
      if (o.rejected || o.deadline_rejected) {
        ++rejected;
        continue;
      }
      ++admitted;
      for (std::uint32_t a = 0; a < o.retries; ++a) {
        if (o.lost_attempts[a].end <= t) ++retried;
      }
      if (o.resolved <= t) {
        if (o.deadline_missed) {
          ++deadline_missed;
        } else if (o.retry_exhausted) {
          ++retry_exhausted;
        } else {
          ++completed;
        }
        continue;
      }
      bool in_flight_at = false, queued_at = false;
      SimTime gap_from = o.arrival;
      for (const auto& a : o.lost_attempts) {
        if (a.start <= t && t < a.end) in_flight_at = true;
        if (gap_from <= t && t < a.start) queued_at = true;
        gap_from = a.end;
      }
      if (o.completed() && o.lane >= 0 && o.start <= t &&
          t < o.start + o.service) {
        in_flight_at = true;
      }
      const SimTime final_wait_to = o.completed() ? o.start : o.resolved;
      if (gap_from <= t && t < final_wait_to) queued_at = true;
      EXPECT_NE(in_flight_at, queued_at)
          << "job " << o.id << " at t=" << t.seconds();
      if (in_flight_at) {
        ++in_flight;
      } else {
        ++queued;
      }
    }
    std::uint64_t breaker_open = 0;
    for (const auto& transitions : report.breaker_transitions) {
      serve::BreakerState state = serve::BreakerState::Closed;
      for (const auto& tr : transitions) {
        if (tr.time > t) break;
        state = tr.to;
      }
      if (state == serve::BreakerState::Open) ++breaker_open;
    }
    series.push(t, {offered, admitted, rejected, completed, in_flight,
                    queued, retried, deadline_missed, retry_exhausted,
                    breaker_open});
  };
  for (SimTime t = SimTime::zero() + interval; t < end; t += interval) {
    snap_at(t);
  }
  snap_at(end);
  return series;
}

/// build_snapshots() (one sweep) equals the row-by-row scan: same instants,
/// same value in every column of every row.
void expect_sweep_matches_scan(const serve::ServeReport& report,
                               const serve::ObsOptions& options) {
  const auto sweep = serve::build_snapshots(report, options);
  const auto scan = scanned_snapshots(report, options);
  EXPECT_EQ(sweep.columns(), scan.columns());
  ASSERT_EQ(sweep.rows(), scan.rows());
  for (std::size_t r = 0; r < sweep.rows(); ++r) {
    EXPECT_EQ(sweep.time(r).seconds(), scan.time(r).seconds()) << "row " << r;
    EXPECT_EQ(sweep.row(r), scan.row(r))
        << "row " << r << " at t=" << sweep.time(r).seconds();
  }
}

/// The chaos kill config: CSD 0 dies mid-run under saturation while every
/// job runs seeded point faults against a hair-trigger breaker, with the
/// given serve-layer retry budget.
serve::ServeConfig killed_config(std::uint32_t retry_budget) {
  auto config = hot_config(3, 24, 2);
  config.fault.set_rate_all(0.02);
  config.breaker.threshold = 1.0;
  config.kill_devices = {
      serve::KillDevice{.device = 0, .at = SimTime{3.0}}};
  config.retry_budget = retry_budget;
  return config;
}

TEST(ServeObs, SweepSnapshotsMatchTheRowByRowScan) {
  auto config = killed_config(3);
  const auto killed = serve::serve(config);
  ASSERT_GT(killed.retried, 0u);
  ASSERT_TRUE(std::any_of(killed.breaker_transitions.begin(),
                          killed.breaker_transitions.end(),
                          [](const auto& lane) { return !lane.empty(); }));
  expect_sweep_matches_scan(killed, config.obs);

  auto slo = small_config(1, 20.0, 24, 2);
  for (auto& t : slo.tenants) t.slo = Seconds{0.3};
  const auto missed = serve::serve(slo);
  ASSERT_GT(missed.deadline_missed, 0u);
  expect_sweep_matches_scan(missed, slo.obs);

  auto exhausted_config = killed_config(0);
  const auto exhausted = serve::serve(exhausted_config);
  ASSERT_GT(exhausted.retry_exhausted, 0u);
  expect_sweep_matches_scan(exhausted, exhausted_config.obs);

  // The sweep finds an event's row from x / interval: intervals that do not
  // divide the makespan, and a row cap that widens the interval.
  for (const auto* report : {&killed, &missed, &exhausted}) {
    for (const double interval : {0.25, 0.1, 1.0 / 3.0}) {
      for (const std::size_t cap : {std::size_t{256}, std::size_t{7}}) {
        serve::ObsOptions options;
        options.snapshot_interval = Seconds{interval};
        options.max_snapshots = cap;
        expect_sweep_matches_scan(*report, options);
      }
    }
  }

  // Offers exactly on the accumulated row instants, on the exact multiples
  // of the interval they drift from, and one ulp either side: the guess
  // x / interval can land a row early or late, and stepping must fix both.
  for (const double interval : {0.1, 1.0 / 3.0}) {
    serve::ServeReport offers;
    const auto offer = [&](double at) {
      serve::JobOutcome o;
      o.id = offers.outcomes.size();
      o.rejected = true;
      o.arrival = SimTime{at};
      offers.outcomes.push_back(o);
    };
    SimTime t = SimTime::zero() + Seconds{interval};
    for (int k = 1; k <= 2000; ++k, t += Seconds{interval}) {
      for (const double at : {t.seconds(), k * interval}) {
        offer(at);
        offer(std::nextafter(at, 0.0));
        offer(std::nextafter(at, 1e9));
      }
    }
    offers.makespan = t;
    serve::ObsOptions options;
    options.snapshot_interval = Seconds{interval};
    options.max_snapshots = 4096;
    expect_sweep_matches_scan(offers, options);
  }

  // A run long enough that the default row cap widens the interval, then
  // intervals x / k for event instants x: row k - 1 lands on x or within a
  // rounding of it, unless the cap widens the interval again.
  auto long_config = hot_config(2, 120, 2);
  long_config.offered_load = 1.0;
  const auto long_run = serve::serve(long_config);
  ASSERT_GT(long_run.makespan.seconds() /
                long_config.obs.snapshot_interval.value(),
            static_cast<double>(long_config.obs.max_snapshots));
  expect_sweep_matches_scan(long_run, long_config.obs);
  for (std::size_t i = 0; i < long_run.outcomes.size(); i += 7) {
    const auto& o = long_run.outcomes[i];
    for (const SimTime x : {o.arrival, o.resolved}) {
      if (x.seconds() <= 0.0) continue;
      for (const double k : {1.0, 3.0, 10.0}) {
        serve::ObsOptions options = long_config.obs;
        options.snapshot_interval = Seconds{x.seconds() / k};
        expect_sweep_matches_scan(long_run, options);
      }
    }
  }
}

TEST(ServeObs, SweepSnapshotsMatchTheScanWithRowsOnEventInstants) {
  // An interval of x puts row 0 exactly on x, so every arrival, start,
  // lost-attempt boundary, resolution and breaker transition in turn sits
  // on a row — where the half-open span boundaries decide the counts.
  auto config = killed_config(3);
  const auto report = serve::serve(config);
  std::vector<SimTime> instants;
  for (const auto& transitions : report.breaker_transitions) {
    for (const auto& tr : transitions) instants.push_back(tr.time);
  }
  for (const auto& o : report.outcomes) {
    instants.push_back(o.arrival);
    instants.push_back(o.resolved);
    if (o.completed()) instants.push_back(o.start);
    for (const auto& a : o.lost_attempts) {
      instants.push_back(a.start);
      instants.push_back(a.end);
    }
  }
  ASSERT_GT(report.lost_in_flight, 0u);
  std::size_t checked = 0;
  for (const SimTime x : instants) {
    if (x.seconds() <= report.makespan.seconds() / 512.0) continue;
    serve::ObsOptions options = config.obs;
    options.snapshot_interval = Seconds{x.seconds()};
    options.max_snapshots = 1024;
    const auto sweep = serve::build_snapshots(report, options);
    ASSERT_EQ(sweep.time(0).seconds(), x.seconds());
    expect_sweep_matches_scan(report, options);
    ++checked;
  }
  EXPECT_GT(checked, report.total_jobs);
}

TEST(ServeChaos, DeviceDeathUnderSaturationKeepsDispatching) {
  // Once every surviving lane is claimed in a wave, the dead lane still
  // counts toward lane_count(); the decision loop must close the wave there
  // rather than admit the whole remaining arrival stream at t = infinity,
  // which floods the bounded queues with Overloaded rejections.
  auto config = hot_config(4, 200, 2);
  config.offered_load = 4.0;
  const auto healthy = serve::serve(config);
  const SimTime kill{2.0};
  config.kill_devices = {serve::KillDevice{.device = 0, .at = kill}};
  const auto killed = serve::serve(config);

  EXPECT_EQ(killed.devices_failed, 1u);
  EXPECT_GE(2 * killed.completed, healthy.completed)
      << "killed " << killed.completed << " vs healthy " << healthy.completed;
  EXPECT_TRUE(std::any_of(killed.outcomes.begin(), killed.outcomes.end(),
                          [&](const serve::JobOutcome& o) {
                            return o.completed() && o.start > kill;
                          }));
  EXPECT_EQ(killed.admitted, killed.completed + killed.deadline_missed +
                                 killed.retry_exhausted);
}

TEST(ServeMemo, FindIsDigestBucketedButKeyVerified) {
  serve::SimMemoCache cache(4);
  serve::SimKey key;
  key.job_class = 1;
  key.link_share_bits = 42;
  serve::SimResult r;
  r.service = Seconds{1.5};
  r.migrations = 3;
  cache.insert(key, r);
  ASSERT_NE(cache.find(key), nullptr);
  EXPECT_EQ(cache.find(key)->result.service, Seconds{1.5});
  EXPECT_EQ(cache.find(key)->result.migrations, 3u);

  // Any field difference — including only the availability schedule — is a
  // different key, never a false hit.
  auto other = key;
  other.fault_seed = 7;
  EXPECT_EQ(cache.find(other), nullptr);
  auto sched = key;
  sched.schedule = sim::AvailabilitySchedule::constant(0.5);
  EXPECT_EQ(cache.find(sched), nullptr);
  EXPECT_NE(key.digest(), sched.digest());
}

TEST(ServeMemo, WaveMissesSplitKeysThatShareADigest) {
  serve::WaveMisses pending;
  serve::SimKey a, b;
  a.job_class = 1;
  b.job_class = 2;
  // Both keys land in one digest bucket: only the full key tells them apart.
  EXPECT_EQ(pending.dedupe(a, 7, 0), std::nullopt);
  EXPECT_EQ(pending.dedupe(b, 7, 1), std::nullopt);
  EXPECT_EQ(pending.dedupe(a, 7, 2), std::optional<std::size_t>{0});
  EXPECT_EQ(pending.dedupe(b, 7, 3), std::optional<std::size_t>{1});
  ASSERT_EQ(pending.misses().size(), 2u);
  EXPECT_EQ(pending.misses()[0].key, a);
  EXPECT_EQ(pending.misses()[1].key, b);
  EXPECT_EQ(pending.misses()[1].first, 1u);
}

TEST(ServeMemo, FifoEvictionByInsertionOrder) {
  serve::SimMemoCache cache(2);
  serve::SimKey a, b, c;
  a.job_class = 1;
  b.job_class = 2;
  c.job_class = 3;
  serve::SimResult r;
  cache.insert(a, r);
  cache.insert(b, r);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  cache.insert(c, r);  // evicts a — the oldest — not b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.find(a), nullptr);
  EXPECT_NE(cache.find(b), nullptr);
  EXPECT_NE(cache.find(c), nullptr);
}

TEST(ServeMemo, DoubleInsertAndZeroCapacityAreLoudErrors) {
  EXPECT_THROW(serve::SimMemoCache{0}, Error);
  serve::SimMemoCache cache(2);
  serve::SimKey key;
  cache.insert(key, serve::SimResult{});
  EXPECT_THROW(cache.insert(key, serve::SimResult{}), Error);
}

TEST(FleetIndex, EpochsTrackBusyDeathAndGate) {
  serve::Fleet fleet(serve::FleetConfig::make(2, 1), tiny_breaker());
  const auto lane0 = fleet.lane_epoch(0);
  const auto lane1 = fleet.lane_epoch(1);
  const auto global = fleet.fleet_epoch();

  fleet.occupy(0, SimTime::zero(), Seconds{1.0});
  EXPECT_GT(fleet.lane_epoch(0), lane0);
  EXPECT_EQ(fleet.lane_epoch(1), lane1);  // untouched lane keeps its epoch
  EXPECT_GT(fleet.fleet_epoch(), global);  // device busy moved the fleet

  // Breaker outcomes bump the lane epoch only when the gate actually moves.
  const auto before_gate = fleet.lane_epoch(1);
  fleet.record_health(1, SimTime{1.0}, 3.0);  // quiet
  EXPECT_EQ(fleet.breaker(1).ready_at(), SimTime::zero());
  EXPECT_EQ(fleet.lane_epoch(1), before_gate);
  fleet.record_health(1, SimTime{1.0}, 3.0);  // trips
  EXPECT_EQ(fleet.breaker(1).ready_at(), SimTime{2.0});
  EXPECT_GT(fleet.lane_epoch(1), before_gate);
  // The probe opens the gate (a move); its clean result re-Closes the
  // breaker with the gate still open (no move).
  const auto before_probe = fleet.lane_epoch(1);
  fleet.begin_probe(1, SimTime{2.0});
  EXPECT_EQ(fleet.breaker(1).ready_at(), SimTime::zero());
  EXPECT_GT(fleet.lane_epoch(1), before_probe);
  const auto before_result = fleet.lane_epoch(1);
  fleet.record_health(1, SimTime{2.5}, 0.0);
  EXPECT_EQ(fleet.breaker(1).state(), serve::BreakerState::Closed);
  EXPECT_EQ(fleet.lane_epoch(1), before_result);

  // Host lane occupancy moves its lane epoch but not the fleet epoch (host
  // lanes never draw on the device link).
  const auto host = fleet.device_count();
  const auto before_host = fleet.fleet_epoch();
  fleet.occupy(host, SimTime::zero(), Seconds{1.0});
  EXPECT_EQ(fleet.fleet_epoch(), before_host);

  const auto before_death = fleet.lane_epoch(1);
  fleet.mark_dead(1, SimTime{0.5});
  EXPECT_GT(fleet.lane_epoch(1), before_death);
}

// Linear-scan references for the fleet's indexed queries.

std::size_t reference_busy_after(const serve::Fleet& fleet, SimTime t) {
  std::size_t n = 0;
  for (std::size_t lane = 0; lane < fleet.device_count(); ++lane) {
    if (fleet.busy_until(lane) > t) ++n;
  }
  return n;
}

SimTime reference_earliest(const serve::Fleet& fleet, SimTime arrival) {
  SimTime best = SimTime::infinity();
  for (std::size_t lane = 0; lane < fleet.lane_count(); ++lane) {
    if (!fleet.alive(lane)) continue;
    SimTime start = std::max(fleet.busy_until(lane), arrival);
    if (!fleet.is_host_lane(lane)) {  // host lanes have no breaker gate
      start = std::max(start, fleet.breaker(lane).ready_at());
    }
    if (start >= fleet.kill_at(lane)) continue;
    best = std::min(best, start);
  }
  return best;
}

SimTime reference_next_free(const serve::Fleet& fleet,
                            const std::vector<bool>& claimed) {
  SimTime best = SimTime::infinity();
  for (std::size_t lane = 0; lane < fleet.lane_count(); ++lane) {
    if (claimed[lane] || !fleet.alive(lane)) continue;
    if (fleet.busy_until(lane) >= fleet.kill_at(lane)) continue;
    best = std::min(best, fleet.busy_until(lane));
  }
  return best;
}

TEST(FleetIndex, QueriesMatchTheLinearScans) {
  // Drive a small fleet through occupies, a death, a kill schedule and a
  // tripped breaker, checking every indexed query against its reference
  // scan.
  serve::Fleet fleet(serve::FleetConfig::make(4, 2, 0.05), tiny_breaker());
  fleet.set_kill_at(3, SimTime{2.5});
  fleet.occupy(0, SimTime::zero(), Seconds{1.0});
  fleet.occupy(1, SimTime{0.5}, Seconds{2.0});
  fleet.occupy(3, SimTime::zero(), Seconds{3.0});  // sails past its death
  fleet.occupy(4, SimTime::zero(), Seconds{0.25});
  fleet.mark_dead(2, SimTime{1.0});
  fleet.record_health(0, SimTime{0.75}, 6.0);
  ASSERT_EQ(fleet.breaker(0).ready_at(), SimTime{1.75});

  for (const double t : {0.0, 0.5, 0.9999, 1.0, 1.5, 2.0, 2.5, 3.0, 9.0}) {
    EXPECT_EQ(fleet.busy_devices_after(SimTime{t}),
              reference_busy_after(fleet, SimTime{t}))
        << "t=" << t;
  }
  for (const double t : {0.0, 0.5, 1.0, 1.9, 2.6, 4.0}) {
    EXPECT_EQ(fleet.earliest_feasible_start(SimTime{t}),
              reference_earliest(fleet, SimTime{t}))
        << "arrival=" << t;
  }
  std::vector<bool> claimed(fleet.lane_count(), false);
  EXPECT_EQ(fleet.next_free(claimed), reference_next_free(fleet, claimed));
  claimed[4] = true;  // claim one host lane
  claimed[0] = true;
  EXPECT_EQ(fleet.next_free(claimed), reference_next_free(fleet, claimed));
  claimed.assign(fleet.lane_count(), true);
  EXPECT_EQ(fleet.next_free(claimed), SimTime::infinity());
}

TEST(FleetIndex, RandomSequencesMatchTheLinearScans) {
  // 200 seeded sequences over 1-12 devices and 0-3 host lanes, mixing every
  // operation that moves a lane in or out of the index.  Times sit on a
  // quarter-second grid so busy clocks, kills and gates tie often.  After
  // every step each indexed query must equal its linear scan.
  Rng rng(0x1a4e5eedULL);
  const auto grid = [&](std::uint64_t hi) {
    return Seconds{0.25 * static_cast<double>(rng.uniform_u64(0, hi))};
  };
  for (int sequence = 0; sequence < 200; ++sequence) {
    const std::size_t devices = rng.uniform_u64(1, 12);
    const std::size_t hosts = rng.uniform_u64(0, 3);
    serve::Fleet fleet(serve::FleetConfig::make(devices, hosts, 0.05),
                       tiny_breaker());
    const std::size_t lanes = fleet.lane_count();
    for (int step = 0; step < 60; ++step) {
      const std::size_t lane = rng.uniform_u64(0, lanes - 1);
      const bool device = !fleet.is_host_lane(lane);
      const SimTime now = fleet.busy_until(lane);
      switch (rng.uniform_u64(0, 5)) {
        case 0:
        case 1:  // the common case: a dispatch, possibly past a kill
          if (fleet.alive(lane)) fleet.occupy(lane, now + grid(4), grid(8));
          break;
        case 2:  // often before busy_until: the clock clamps to the death
          if (device) fleet.mark_dead(lane, SimTime::zero() + grid(60));
          break;
        case 3:  // often at or before busy_until: the lane is doomed at once
          if (device) fleet.set_kill_at(lane, SimTime::zero() + grid(60));
          break;
        case 4:
          if (device) {
            fleet.record_health(lane, now,
                                static_cast<double>(rng.uniform_u64(0, 6)));
          }
          break;
        case 5:
          if (!device) break;
          if (fleet.breaker(lane).state() == serve::BreakerState::Open) {
            fleet.begin_probe(lane,
                              std::max(now, fleet.breaker(lane).ready_at()));
          } else if (fleet.breaker(lane).probe_in_flight()) {
            fleet.abort_probe(lane);
          }
          break;
      }
      const std::string where = "sequence " + std::to_string(sequence) +
                                " step " + std::to_string(step);
      std::vector<bool> claimed(lanes);
      for (int q = 0; q < 3; ++q) {
        for (std::size_t k = 0; k < lanes; ++k) {
          claimed[k] = rng.uniform_u64(0, 2) == 0;
        }
        ASSERT_EQ(fleet.next_free(claimed), reference_next_free(fleet, claimed))
            << where;
        const SimTime t = SimTime::zero() + grid(40);
        ASSERT_EQ(fleet.earliest_feasible_start(t), reference_earliest(fleet, t))
            << where << " arrival " << t.seconds();
        ASSERT_EQ(fleet.busy_devices_after(t), reference_busy_after(fleet, t))
            << where << " t " << t.seconds();
      }
      for (std::size_t k = 0; k < lanes; ++k) {  // exactly at every clock
        const SimTime t = fleet.busy_until(k);
        ASSERT_EQ(fleet.busy_devices_after(t), reference_busy_after(fleet, t))
            << where;
        ASSERT_EQ(fleet.earliest_feasible_start(t), reference_earliest(fleet, t))
            << where;
      }
      claimed.assign(lanes, false);
      ASSERT_EQ(fleet.next_free(claimed), reference_next_free(fleet, claimed))
          << where;
    }
  }
}


// --- Storage backends in the fleet (ZNS / FTL / mixed) -------------------

/// A persisting workload on a heterogeneous fleet: even-indexed devices run
/// the FTL, odd-indexed devices run ZNS, and one job class writes its
/// outputs to flash so the lanes genuinely serve differently (reclaim
/// stalls, metadata traffic, Eq.1 persist pricing).
/// mixed_backend_config's golden digests, shared by every memo capacity.
constexpr Golden kMixedFleetGolden{
    0x311bd202d4c1f3d1ULL, 0xc557aab36812987dULL, 0x118b5743b14f8fceULL,
    0x950daef9b8dea92eULL, 0xb29cd2162f5b3a15ULL};

serve::ServeConfig mixed_backend_config(unsigned jobs) {
  serve::ServeConfig config;
  config.fleet =
      serve::FleetConfig::make(4, 1, 0.0, serve::BackendMix::Mixed);
  config.tenants = {serve::TenantConfig{.weight = 1.0, .queue_depth = 16},
                    serve::TenantConfig{.weight = 2.0, .queue_depth = 16}};
  config.job_classes = {
      serve::JobClass{.app = "tpch-q6", .size_factor = 0.1, .persist = true},
      serve::JobClass{.app = "kmeans", .size_factor = 0.05}};
  config.total_jobs = 24;
  config.offered_load = 8.0;
  config.jobs = jobs;
  return config;
}

TEST(ServeBackend, MixedFleetByteIdenticalAcrossJobsAndCaches) {
  const auto serial = serve::serve(mixed_backend_config(1));
  const auto parallel = serve::serve(mixed_backend_config(4));
  expect_identical(serial, parallel);
  EXPECT_GT(parallel.sim_cache_hits, 0u);
  EXPECT_GT(parallel.bid_cache_hits, 0u);
  // Span write-backs, memo and bid cache against the cache-free, scalar
  // page-write golden digests.
  expect_golden(parallel, kMixedFleetGolden);

  // The persisting class must actually have driven the backends: some lane
  // accumulated host page programs (and ZNS/FTL reclaim bookkeeping).
  std::uint64_t host_pages = 0;
  Seconds reclaim = Seconds::zero();
  for (const auto& lane : serial.lanes) {
    host_pages += lane.storage_host_pages;
    reclaim = reclaim + lane.reclaim_time;
    EXPECT_GE(lane.storage_write_amplification(), 1.0);
  }
  EXPECT_GT(host_pages, 0u);
  EXPECT_GE(reclaim.value(), 0.0);
}

TEST(ServeBackend, CrashedRunThenMoreRunsOnTheSameBackendKind) {
  // Point faults make every dispatch a memo miss, so each persisting job
  // drives a backend of its lane's kind.  Job 0 is the first persisting
  // job, on FTL lane 0; its power cut crashes and remounts that backend,
  // and the FTL runs after it must behave as on a freshly built one.
  auto config = mixed_backend_config(4);
  config.fault.set_rate_all(0.01);
  config.power_loss_job = 0;
  config.power_loss_after = 3;
  const auto r = serve::serve(config);
  ASSERT_EQ(r.outcomes[0].job_class, 0u);
  ASSERT_FALSE(r.outcomes[0].on_host);
  EXPECT_GE(r.outcomes[0].power_losses, 1u);
  EXPECT_EQ(r.sim_cache_hits, 0u);
  std::size_t later_ftl_persisting = 0;
  for (const auto& o : r.outcomes) {
    if (o.id > 0 && o.job_class == 0 && !o.on_host && o.lane % 2 == 0) {
      ++later_ftl_persisting;
    }
  }
  EXPECT_GE(later_ftl_persisting, 2u);
  expect_golden(r, {0xaa9f9b4f9dfd88f0ULL, 0x1278949569806887ULL,
                    0x96824fec194a6e59ULL, 0x84d13da739e39e59ULL,
                    0x246ade10182ef12dULL});
  config.jobs = 1;
  expect_identical(r, serve::serve(config));
}

TEST(ServeHotpath, CapacityOneMemoFoldsByPointerExactly) {
  // One memo entry: a wave that both hits that entry and misses evicts it
  // with its deferred insert.  A fold that read a hit through its pointer
  // after the insert would read freed memory (the ASan build's gate) or a
  // wrong result (the golden digests of the default capacity).
  auto config = mixed_backend_config(4);
  config.sim_cache_capacity = 1;
  const auto r = serve::serve(config);
  EXPECT_GT(r.sim_cache_evictions, 0u);
  EXPECT_GT(r.sim_cache_hits, 0u);
  expect_golden(r, kMixedFleetGolden);
}

TEST(ServeBackend, PersistOffIsIndifferentToBackendMix) {
  // Without a persisting class the backend never runs, so an all-FTL and an
  // all-ZNS fleet must serve byte-identically — the seam is free until used.
  auto ftl = mixed_backend_config(2);
  ftl.job_classes[0].persist = false;
  ftl.fleet = serve::FleetConfig::make(4, 1, 0.0, serve::BackendMix::Ftl);
  auto zns = ftl;
  zns.fleet = serve::FleetConfig::make(4, 1, 0.0, serve::BackendMix::Zns);
  expect_identical(serve::serve(ftl), serve::serve(zns));
}

TEST(ServeBackend, BackendKindSplitsTheMemoKey) {
  // Loud-collision regression: two dispatches that differ only in the
  // lane's storage backend must never share a memo entry — an FTL service
  // time replayed on a ZNS lane would silently corrupt the simulation.
  serve::SimMemoCache cache(4);
  serve::SimKey ftl_key;
  ftl_key.job_class = 2;
  ftl_key.backend = 1 + static_cast<std::uint32_t>(flash::BackendKind::Ftl);
  serve::SimResult r;
  r.service = Seconds{2.5};
  cache.insert(ftl_key, r);

  auto zns_key = ftl_key;
  zns_key.backend = 1 + static_cast<std::uint32_t>(flash::BackendKind::Zns);
  EXPECT_NE(ftl_key.digest(), zns_key.digest());
  EXPECT_EQ(cache.find(zns_key), nullptr);
  ASSERT_NE(cache.find(ftl_key), nullptr);
  EXPECT_EQ(cache.find(ftl_key)->result.service, Seconds{2.5});

  // Host lanes use the reserved 0 value: distinct from every device kind.
  auto host_key = ftl_key;
  host_key.backend = 0;
  host_key.on_host = true;
  EXPECT_EQ(cache.find(host_key), nullptr);
}

TEST(ServeBackend, MixAssignsAlternatingKinds) {
  const auto config = serve::FleetConfig::make(5, 0, 0.0,
                                               serve::BackendMix::Mixed);
  for (std::size_t k = 0; k < config.devices.size(); ++k) {
    EXPECT_EQ(config.devices[k].backend, (k % 2 == 0)
                                             ? flash::BackendKind::Ftl
                                             : flash::BackendKind::Zns)
        << "device " << k;
  }
  const auto all_zns = serve::FleetConfig::make(3, 0, 0.0,
                                                serve::BackendMix::Zns);
  for (const auto& d : all_zns.devices) {
    EXPECT_EQ(d.backend, flash::BackendKind::Zns);
  }
}

TEST(FleetIndex, DoomedLaneNeverSchedulesAgain) {
  serve::Fleet fleet(serve::FleetConfig::make(2, 0));
  fleet.occupy(0, SimTime::zero(), Seconds{5.0});
  fleet.set_kill_at(0, SimTime{2.0});  // already committed past its death
  // Lane 0 is doomed: every feasibility query must route around it.
  EXPECT_EQ(fleet.earliest_feasible_start(SimTime{0.0}), SimTime::zero());
  std::vector<bool> claimed(fleet.lane_count(), false);
  claimed[1] = true;
  EXPECT_EQ(fleet.next_free(claimed), SimTime::infinity());
}

// --- Reclaim derating (Fleet::note_storage) -------------------------------

TEST(FleetDerate, ReclaimOverBusyQuantisedToSixtyFourths) {
  serve::Fleet fleet(serve::FleetConfig::make(2, 1, 0.05));
  fleet.occupy(1, SimTime::zero(), Seconds{1.0});
  const auto before = fleet.lane_epoch(1);
  fleet.note_storage(1, 10, 2, 0, Seconds{0.3});  // 0.3 / 1.0 -> 19.2/64
  EXPECT_GT(fleet.lane_epoch(1), before);
  EXPECT_EQ(fleet.derate(1), 19.0 / 64.0);
  EXPECT_TRUE(fleet.cse_schedule(1) ==
              fleet.device(1).cse_availability.scaled(1.0 - 19.0 / 64.0));
  // The untouched device keeps its base schedule.
  EXPECT_EQ(fleet.derate(0), 0.0);
  EXPECT_TRUE(fleet.cse_schedule(0) == fleet.device(0).cse_availability);
}

TEST(FleetDerate, CapsAtHalf) {
  serve::Fleet fleet(serve::FleetConfig::make(2, 1, 0.05));
  fleet.occupy(0, SimTime::zero(), Seconds{1.0});
  fleet.note_storage(0, 10, 2, 0, Seconds{0.5});  // exactly half
  EXPECT_EQ(fleet.derate(0), 0.5);
  fleet.occupy(1, SimTime::zero(), Seconds{1.0});
  fleet.note_storage(1, 10, 2, 0, Seconds{0.9});  // past half
  EXPECT_EQ(fleet.derate(1), 0.5);
  EXPECT_TRUE(fleet.cse_schedule(1) ==
              fleet.device(1).cse_availability.scaled(0.5));
}

TEST(FleetDerate, UnchangedQuantumKeepsTheSchedule) {
  serve::Fleet fleet(serve::FleetConfig::make(2, 1, 0.05));
  fleet.occupy(1, SimTime::zero(), Seconds{1.0});
  fleet.note_storage(1, 10, 2, 0, Seconds{0.3});
  const sim::AvailabilitySchedule derated = fleet.cse_schedule(1);
  // A second fold at the same pressure: 0.6 / 2.0 is still 19/64.
  fleet.occupy(1, SimTime{1.0}, Seconds{1.0});
  fleet.note_storage(1, 10, 2, 0, Seconds{0.3});
  EXPECT_EQ(fleet.derate(1), 19.0 / 64.0);
  EXPECT_TRUE(fleet.cse_schedule(1) == derated);
  // A fold that drops the pressure below the quantum re-derives it.
  fleet.occupy(1, SimTime{2.0}, Seconds{1.0});
  fleet.note_storage(1, 10, 2, 0, Seconds::zero());  // 0.6 / 3.0 = 12.8/64
  EXPECT_EQ(fleet.derate(1), 12.0 / 64.0);
  EXPECT_TRUE(fleet.cse_schedule(1) ==
              fleet.device(1).cse_availability.scaled(1.0 - 12.0 / 64.0));
}

TEST(FleetDerate, HostLanesNeverDerate) {
  serve::Fleet fleet(serve::FleetConfig::make(1, 1));
  const std::size_t host = fleet.device_count();
  fleet.occupy(host, SimTime::zero(), Seconds{1.0});
  fleet.note_storage(host, 10, 2, 0, Seconds{0.9});
  EXPECT_EQ(fleet.stats(host).reclaim_time, Seconds{0.9});
  EXPECT_EQ(fleet.derate(host), 0.0);
  EXPECT_THROW((void)fleet.cse_schedule(host), Error);
  EXPECT_THROW((void)fleet.breaker(host), Error);
}

// --- Reduction: one device, one job == the single-device runtime ---------
// The served dispatch replays its class's recorded kernel output sizes while
// ActiveRuntime::run calls the kernels, so this also cross-checks the replay.

TEST(ServeReduction, OneDeviceOneJobEqualsActiveRuntime) {
  for (const char* app : {"tpch-q6", "kmeans", "pagerank", "tpch-q1"}) {
    serve::ServeConfig config;
    config.fleet = serve::FleetConfig::make(1, 1, 0.0);
    config.tenants = {serve::TenantConfig{}};
    config.job_classes = {serve::JobClass{.app = app, .size_factor = 0.1}};
    config.total_jobs = 1;
    const auto report = serve::serve(config);
    ASSERT_EQ(report.completed, 1u) << app;
    const auto& outcome = report.outcomes[0];
    EXPECT_FALSE(outcome.on_host) << app;
    EXPECT_EQ(outcome.lane, 0) << app;

    apps::AppConfig ac;
    ac.size_factor = 0.1;
    system::SystemModel system(config.fleet.system);
    runtime::ActiveRuntime active(system);
    runtime::RunConfig rc;
    rc.mode = config.mode;
    const auto direct = active.run(apps::make_app(app, ac), rc);
    EXPECT_EQ(outcome.service.value(), direct.report.total.value()) << app;
  }
}

}  // namespace
