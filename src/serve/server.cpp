#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "apps/registry.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/pool.hpp"
#include "plan/equation1.hpp"
#include "runtime/active_runtime.hpp"
#include "serve/bid_cache.hpp"
#include "serve/memo.hpp"
#include "serve/observe.hpp"

namespace isp::serve {

namespace {

/// Cached per-class pipeline products: everything placement and dispatch
/// need without re-running the sampling phase per job.
struct Profile {
  explicit Profile(ir::Program p) : program(std::move(p)) {}

  ir::Program program;
  ir::Plan plan;           // Algorithm-1 plan, estimates attached
  ir::Plan host_plan;      // all-host fallback plan
  Seconds host_work;       // planner's T_host
  Seconds csd_work;        // planner's T_csd
  Bytes ds_raw;            // stored input the host path pulls over the link
  Bytes ds_processed;      // intermediates the device ships back
  /// Flash pages the persisted outputs program per run (before write
  /// amplification) — the Equation-1 persist-cost input.
  std::uint64_t persist_pages = 0;
  /// Output sizes of the profiling run's kernels: every dispatch replays
  /// them instead of calling the kernels again.
  ir::OutputSizes output_sizes;
};

std::vector<std::shared_ptr<const Profile>> build_profiles(
    const ServeConfig& config) {
  return exec::run_batch(
      config.job_classes.size(),
      [&](std::size_t c) -> std::shared_ptr<const Profile> {
        const auto& jc = config.job_classes[c];
        apps::AppConfig ac;
        ac.size_factor = jc.size_factor;
        auto profile = std::make_shared<Profile>(apps::make_app(jc.app, ac));
        if (jc.persist) {
          // Persist the class's final product: the last line that produces
          // anything writes its outputs to flash.  Marked before the
          // profiling run so the cached plan, estimates and projected
          // latencies all price the write-back the dispatches will pay.
          for (std::size_t i = profile->program.line_count(); i-- > 0;) {
            if (!profile->program.lines()[i].outputs.empty()) {
              profile->program.line_mut(i).writes_storage = true;
              break;
            }
          }
        }

        system::SystemModel system(config.fleet.system);
        runtime::ActiveRuntime active(system);
        runtime::RunConfig rc;
        rc.mode = config.mode;
        const auto result = active.run(profile->program, rc);

        profile->plan = result.plan;
        profile->host_plan =
            ir::Plan::host_only(profile->program.line_count());
        profile->host_work = result.projected_host;
        profile->csd_work = result.projected_csd;
        profile->output_sizes = result.report.output_sizes;
        const auto page_bytes =
            config.fleet.system.csd.nand_geometry.page_bytes.count();
        for (std::size_t i = 0; i < result.plan.estimate.size(); ++i) {
          const auto& est = result.plan.estimate[i];
          profile->ds_raw += est.storage_in;
          if (result.plan.placement[i] == ir::Placement::Csd) {
            const bool boundary =
                i + 1 == result.plan.placement.size() ||
                result.plan.placement[i + 1] == ir::Placement::Host;
            if (boundary) profile->ds_processed += est.d_out;
          }
          if (profile->program.lines()[i].writes_storage) {
            profile->persist_pages +=
                (est.d_out.count() + page_bytes - 1) / page_bytes;
          }
        }
        return profile;
      },
      config.jobs);
}

std::vector<QueuedJob> generate_arrivals(const ServeConfig& config) {
  Rng rng(config.seed);
  std::vector<QueuedJob> arrivals;
  arrivals.reserve(config.total_jobs);
  SimTime t = SimTime::zero();
  const UniformDraw tenant(0, config.tenants.size() - 1);
  const UniformDraw job_class(0, config.job_classes.size() - 1);
  for (std::uint64_t j = 0; j < config.total_jobs; ++j) {
    const double u = rng.next_double();
    t += Seconds{-std::log(1.0 - u) / config.offered_load};
    QueuedJob& job = arrivals.emplace_back();
    job.id = j;
    job.tenant = static_cast<std::uint32_t>(tenant(rng));
    job.job_class = static_cast<std::uint32_t>(job_class(rng));
    job.arrival = t;
  }
  return arrivals;
}

/// One already-scheduled dispatch: everything the simulation needs is fixed
/// before any worker thread runs.
struct Dispatch {
  QueuedJob job;
  std::size_t lane = 0;
  bool on_host = false;
  SimTime start;
  double link_share = 1.0;
  Seconds eq1_profit;
  /// The device's availability as seen from `start` — precomputed in the
  /// serial decision phase because rebased()/fraction_at() move the
  /// schedule's query cursor (not safe on the shared fleet copy once worker
  /// threads run).
  sim::AvailabilitySchedule device_schedule;
};

// SimResult lives in serve/memo.hpp (PR 7): a memo hit replays one.

SimResult simulate_dispatch(const ServeConfig& config, const Profile& profile,
                            const Dispatch& d) {
  system::SystemConfig sc = config.fleet.system;
  if (!d.on_host) {
    sc.link.bandwidth = sc.link.bandwidth * d.link_share;
    sc.csd.backend = config.fleet.devices[d.lane].backend;
  }
  system::SystemModel system(sc);

  runtime::RunConfig rc;
  rc.mode = config.mode;
  rc.engine.output_sizes = &profile.output_sizes;
  // Persisting classes drive the storage backend for real: datasets mount
  // as live mappings, outputs go through write()/zone_append, and the
  // backend-internal reclaim traffic stalls the device inside the measured
  // service time.
  rc.engine.drive_storage = config.job_classes[d.job.job_class].persist;
  rc.engine.fault = config.fault;
  rc.engine.fault.seed = splitmix64(config.seed ^ (0xf1ee7000ULL + d.job.id));
  if (config.power_loss_job >= 0 &&
      d.job.id == static_cast<std::uint64_t>(config.power_loss_job)) {
    auto& site = rc.engine.fault
                     .sites[static_cast<std::size_t>(fault::Site::PowerLoss)];
    site.rate = 1.0;
    site.skip_first = config.power_loss_after;
    site.max_faults = 1;
  }
  if (d.on_host) {
    rc.reuse_plan = &profile.host_plan;
    rc.engine.monitoring = false;
    rc.engine.migration = false;
  } else {
    rc.reuse_plan = &profile.plan;
    rc.engine.cse_availability = d.device_schedule;
  }

  SimResult r;
  if (config.obs.enabled) rc.engine.metrics = &r.metrics;

  runtime::ActiveRuntime active(system);
  const auto result = active.run(profile.program, rc);

  r.service = result.report.total;
  r.migrations = result.report.migrations;
  r.power_losses = result.report.power_losses;
  r.faults = result.report.faults.total_injected();
  r.faults_exhausted = result.report.faults.total_exhausted();
  r.storage = result.report.storage;
  if (config.obs.enabled) {
    r.migration_overhead = result.report.migration_overhead;
    r.recovery_overhead = result.report.recovery_overhead;
    for (const auto& line : result.report.lines) {
      if (line.placement == ir::Placement::Csd) {
        ++r.lines_csd;
      } else {
        ++r.lines_host;
      }
    }
    const std::size_t cap = config.obs.max_trace_faults_per_job;
    for (const auto& f : result.report.fault_records) {
      if (r.fault_events.size() >= cap) break;
      r.fault_events.push_back(FaultEvent{.site = f.site,
                                          .time = f.time,
                                          .penalty = f.penalty,
                                          .exhausted = f.exhausted});
    }
  }
  return r;
}

/// The memo-cache key for a dispatch: every simulate_dispatch() input that
/// can vary between dispatches.  The derived fault seed enters the key only
/// when a fault site is actually armed — with all rates zero and no armed
/// power loss the injector never fires, so fault-free jobs of a class share
/// one canonical key (that sharing is where the hit rate comes from).
SimKey make_sim_key(const ServeConfig& config, const Dispatch& d) {
  SimKey key;
  key.job_class = d.job.job_class;
  key.on_host = d.on_host;
  key.backend = d.on_host ? 0
                          : 1 + static_cast<std::uint32_t>(
                                    config.fleet.devices[d.lane].backend);
  key.link_share_bits = double_bits(d.on_host ? 1.0 : d.link_share);
  const bool armed =
      config.power_loss_job >= 0 &&
      d.job.id == static_cast<std::uint64_t>(config.power_loss_job);
  if (config.fault.enabled() || armed) {
    key.faulted = true;
    key.fault_seed = splitmix64(config.seed ^ (0xf1ee7000ULL + d.job.id));
    key.power_loss_armed = armed;
    if (armed) key.power_loss_after = config.power_loss_after;
  }
  if (!d.on_host) key.schedule = d.device_schedule;
  return key;
}

/// How a placement attempt ended.
enum class Place {
  Ok,               // out is a valid dispatch
  DeadlineExpired,  // some lane is eligible, but none by the deadline
  NoLane,           // no living, unclaimed, undoomed lane exists
};

/// One eligible lane's bid for the job.
struct LaneBid {
  std::size_t lane = 0;
  bool on_host = false;
  SimTime start;
  SimTime done = SimTime::infinity();
  double share = 1.0;
};

/// The core of device lane `lane`'s Equation-1 bid for a job of `profile`'s
/// class starting at `start`, through the epoch-versioned bid cache: a slot
/// whose state epochs and candidate start still match reuses the
/// finish-time integral, contended share and completion projection.
/// Cached and fresh cores are bit-identical.  A starved slot (the schedule
/// never finishes the work) carries no bid.
const CachedBid& price_device(const Fleet& fleet, std::size_t lane,
                              SimTime start, const Profile& profile,
                              std::uint32_t job_class, BidCache& bids) {
  CachedBid& cb = bids.slot(job_class, lane);
  if (cb.core_valid && cb.lane_epoch == fleet.lane_epoch(lane) &&
      cb.fleet_epoch == fleet.fleet_epoch() && cb.start == start) {
    ++bids.hits;
    return cb;
  }
  ++bids.misses;
  // The lane's *derated* schedule: base CSE availability scaled down by the
  // lane's observed reclaim pressure (the fleet re-derives it under the
  // lane epoch).  Overwriting the slot also drops its cached profit.
  cb = CachedBid{};
  cb.core_valid = true;
  cb.lane_epoch = fleet.lane_epoch(lane);
  cb.fleet_epoch = fleet.fleet_epoch();
  cb.start = start;
  const SimTime compute_done =
      fleet.cse_schedule(lane).finish_time(start, profile.csd_work);
  cb.starved = compute_done == SimTime::infinity();
  if (!cb.starved) {
    const std::size_t busy =
        std::min(fleet.busy_devices_after(start) + 1, fleet.device_count());
    cb.share = fleet.contended_link_share(lane, busy);
    cb.done = compute_done + profile.ds_processed /
                                 (fleet.config().system.link.bandwidth *
                                  cb.share);
    // Effective CSE fraction over exactly the window the job would occupy.
    cb.avail_eff = profile.csd_work.value() > 0.0
                       ? profile.csd_work.value() /
                             (compute_done - start).value()
                       : 1.0;
  }
  return cb;
}

/// The Equation-1 profit S' of running `job` on device lane `lane` rather
/// than on the host path with wait `host_wait`.  The lane's bid core must be
/// the one price_device() just priced for this job; the profit is cached on
/// its slot by (arrival, host_wait), the two inputs the core does not cover.
/// choose_lane prices only the winning device, the one profit it reads.
Seconds price_profit(const Fleet& fleet, std::size_t lane,
                     const Profile& profile, const QueuedJob& job,
                     Seconds host_wait, BidCache& bids) {
  CachedBid& cb = bids.slot(job.job_class, lane);
  if (cb.profit_valid && cb.arrival == job.arrival &&
      cb.host_wait == host_wait) {
    return cb.profit;
  }
  const plan::Eq1Terms terms{.ds_raw = profile.ds_raw,
                             .ct_host = profile.host_work + host_wait,
                             .ct_device = profile.csd_work,
                             .ds_processed = profile.ds_processed,
                             .bw_d2h = fleet.config().system.link.bandwidth};
  // Backend-specific device-side terms: the reclaim stall this lane has
  // historically charged per job (FTL GC vs ZNS copy-forward price very
  // differently), and the NAND-program cost of the class's persisted pages
  // inflated by the lane's observed write amplification.  Both fold from
  // completed jobs through note_storage(), whose lane-epoch bump keeps
  // cached bids exact.
  const auto& ls = fleet.stats(lane);
  const Seconds reclaim_wait =
      ls.jobs > 0
          ? Seconds{ls.reclaim_time.value() / static_cast<double>(ls.jobs)}
          : Seconds::zero();
  const Seconds persist_cost =
      fleet.config().system.csd.nand_timing.page_program *
      (static_cast<double>(profile.persist_pages) *
       ls.storage_write_amplification());
  // The wait this job would actually experience on the device: the time
  // from its arrival until the lane's queued work drains.
  const plan::Eq1Contention contention{
      .queue_wait =
          std::max(Seconds::zero(), fleet.busy_until(lane) - job.arrival),
      .cse_availability = std::clamp(cb.avail_eff, 1e-6, 1.0),
      .link_share = cb.share,
      .reclaim_wait = reclaim_wait,
      .persist_cost = persist_cost};
  cb.profit_valid = true;
  cb.arrival = job.arrival;
  cb.host_wait = host_wait;
  cb.profit = plan::net_profit_under_contention(terms, contention);
  return cb.profit;
}

/// Rank the eligible lanes for `job` and decide device vs host fallback by
/// Equation 1 under contention.  Among devices (and among host lanes) the
/// projected completion decides; between the best device and the host path,
/// the sign of S' decides.  Eligibility is health-aware: dead lanes, lanes
/// whose candidate start would land at or past their scheduled death, and
/// lanes holding an unresolved breaker probe are out; an Open breaker
/// delays the candidate start to its cooldown end (making the eventual
/// dispatch the probe) rather than excluding the lane — exclusion could
/// deadlock a fleet whose every device is Open.  If the Equation-1 winner
/// cannot start by the job's deadline, the earliest-starting eligible lane
/// is tried instead; only when even that misses is DeadlineExpired
/// returned.
Place choose_lane(const Fleet& fleet, const std::vector<bool>& claimed,
                  const Profile& profile, const QueuedJob& job,
                  BidCache& bids, Dispatch& out) {
  std::optional<LaneBid> best_device, best_host, earliest;
  const auto consider = [&](const LaneBid& bid, std::optional<LaneBid>& best) {
    if (!earliest || bid.start < earliest->start ||
        (bid.start == earliest->start && bid.lane < earliest->lane)) {
      earliest = bid;
    }
    if (!best || bid.done < best->done) best = bid;
  };

  // Host lanes first: the fallback's own queue wait belongs on Equation 1's
  // host side, so the devices are priced against the host path the job
  // would actually take.
  for (std::size_t lane = fleet.device_count(); lane < fleet.lane_count();
       ++lane) {
    if (claimed[lane]) continue;
    const SimTime start = std::max(fleet.busy_until(lane), job.ready);
    consider(LaneBid{.lane = lane,
                     .on_host = true,
                     .start = start,
                     .done = start + profile.host_work,
                     .share = 1.0},
             best_host);
  }
  const Seconds host_wait =
      best_host ? std::max(Seconds::zero(),
                           fleet.busy_until(best_host->lane) - job.arrival)
                : Seconds::zero();

  for (std::size_t lane = 0; lane < fleet.device_count(); ++lane) {
    if (claimed[lane] || !fleet.alive(lane)) continue;
    const CircuitBreaker& brk = fleet.breaker(lane);
    if (brk.state() == BreakerState::HalfOpen && brk.probe_in_flight()) {
      continue;  // one probe at a time
    }
    const SimTime start =
        std::max({fleet.busy_until(lane), job.ready, brk.ready_at()});
    if (start >= fleet.kill_at(lane)) continue;  // lane is dead by then
    const CachedBid& cb =
        price_device(fleet, lane, start, profile, job.job_class, bids);
    if (cb.starved) continue;  // starved device: same schedule, same start
    consider(LaneBid{.lane = lane,
                     .on_host = false,
                     .start = start,
                     .done = cb.done,
                     .share = cb.share},
             best_device);
  }

  if (!best_device && !best_host) return Place::NoLane;
  const Seconds device_profit =
      best_device ? price_profit(fleet, best_device->lane, profile, job,
                                 host_wait, bids)
                  : Seconds::zero();
  // A plan with no CSD lines has nothing to offload; don't burn a device.
  const bool host_wins =
      profile.plan.csd_line_count() == 0 ||
      (best_host && (!best_device || device_profit.value() <= 0.0));
  LaneBid chosen = (host_wins && best_host) ? *best_host : *best_device;
  // Deadline-aware fallback: the Equation-1 pick stands unless it would
  // start past the job's deadline and another lane would not.
  if (chosen.start > job.deadline) {
    if (earliest->start > job.deadline) return Place::DeadlineExpired;
    chosen = *earliest;
  }
  out.job = job;
  out.lane = chosen.lane;
  out.on_host = chosen.on_host;
  out.start = chosen.start;
  out.link_share = chosen.on_host ? 1.0 : chosen.share;
  out.eq1_profit = device_profit;
  return Place::Ok;
}

/// Everything one serve() call threads through its stages.  The fleet owns
/// the lane state placement reads (busy clocks, deaths, breakers, derated
/// schedules, all under its epochs); the rest is admission, the two
/// caches, the report under construction and the hoisted wave scratch.
struct ServeState {
  explicit ServeState(const ServeConfig& c)
      : config(c),
        profiles(build_profiles(c)),
        arrivals(generate_arrivals(c)),
        fleet(c.fleet, c.breaker),
        admission(c.tenants),
        bids(c.job_classes.size(), fleet.device_count()),
        memo(c.sim_cache_capacity),
        max_queue(c.tenants.size(), 0) {
    report.outcomes.resize(c.total_jobs);
    wave.reserve(fleet.lane_count());
  }

  const ServeConfig& config;
  const std::vector<std::shared_ptr<const Profile>> profiles;
  const std::vector<QueuedJob> arrivals;  // Poisson stream, arrival order
  std::size_t next_arrival = 0;           // first arrival not yet offered
  Fleet fleet;
  AdmissionController admission;
  // Hot-path caches.  Both are exact: they change how much work the
  // decision and execution stages redo, never what serve() reports.
  BidCache bids;
  SimMemoCache memo;
  ServeReport report;
  /// Deepest each tenant's queue ever got (serial bookkeeping, so the gauge
  /// is deterministic by construction).
  std::vector<std::size_t> max_queue;
  // Wave scratch, hoisted so a wave refills these instead of allocating.
  std::vector<Dispatch> wave;
  std::vector<bool> claimed;
};

/// Offer every arrival up to instant `t` to admission.
void admit_up_to(ServeState& s, SimTime t) {
  while (s.next_arrival < s.arrivals.size() &&
         s.arrivals[s.next_arrival].arrival <= t) {
    const QueuedJob& job = s.arrivals[s.next_arrival++];
    auto& outcome = s.report.outcomes[job.id];
    outcome.id = job.id;
    outcome.tenant = job.tenant;
    outcome.job_class = job.job_class;
    outcome.arrival = job.arrival;
    // The earliest instant any living lane could start the job — the
    // admission-time deadline feasibility bound.  Future dispatches only
    // push busy_until later, so this is a true lower bound; the fleet's
    // ready-order index answers it, breaker gates included.
    const Status st =
        s.admission.offer(job, s.fleet.earliest_feasible_start(job.arrival));
    if (!st.is_ok()) {
      if (st.code() == StatusCode::DeadlineExceeded) {
        outcome.deadline_rejected = true;
      } else {
        outcome.rejected = true;
      }
      outcome.resolved = job.arrival;
    }
    s.max_queue[job.tenant] =
        std::max(s.max_queue[job.tenant], s.admission.queued(job.tenant));
  }
}

/// Abandon an admitted job as retry-exhausted, resolved at `at`.
/// `was_placed`: the job had been dispatched (and lost) rather than found
/// unplaceable.
void abandon(ServeState& s, const QueuedJob& job, bool was_placed,
             SimTime at) {
  s.admission.note_retry_exhausted(job.tenant, was_placed);
  auto& outcome = s.report.outcomes[job.id];
  outcome.retry_exhausted = true;
  outcome.resolved = at;
}

/// Decision stage (serial): claim at most one job per lane.  Every
/// unclaimed lane's busy_until is a *measured* quantity from previous
/// waves, so each decision sees exact state.  False once the queues are
/// drained and no arrivals are left.
bool decide_wave(ServeState& s) {
  s.wave.clear();
  s.claimed.assign(s.fleet.lane_count(), false);
  while (s.wave.size() < s.fleet.lane_count()) {
    // First unclaimed lane in busy_until order — the index already
    // excludes dead and doomed lanes.
    const SimTime t = s.fleet.next_free(s.claimed);
    // Every schedulable lane is claimed (lane_count() still counts dead
    // lanes): close the wave rather than admit up to infinity, which would
    // flood the bounded queues with the whole remaining arrival stream.  An
    // empty wave falls through to the abandon path below, so every job
    // still resolves.
    if (t == SimTime::infinity() && !s.wave.empty()) break;
    admit_up_to(s, t);
    if (!s.admission.any_queued()) {
      if (s.wave.empty() && s.next_arrival < s.arrivals.size()) {
        // Idle fleet: jump to the next arrival and retry.
        admit_up_to(s, s.arrivals[s.next_arrival].arrival);
        continue;
      }
      break;
    }
    const auto job = s.admission.pick();
    Dispatch d;
    const Place placed = choose_lane(s.fleet, s.claimed,
                                     *s.profiles[job->job_class], *job,
                                     s.bids, d);
    if (placed == Place::DeadlineExpired) {
      // Skip the expired job loudly: typed per-tenant counter, resolved at
      // the deadline — or at the death that re-enqueued it, when the lane
      // died after the deadline had already passed (the job's last attempt
      // span must not outlive its resolution instant).
      s.admission.note_deadline_missed(job->tenant);
      auto& outcome = s.report.outcomes[job->id];
      outcome.deadline_missed = true;
      outcome.resolved = std::max(job->deadline, job->ready);
      continue;
    }
    if (placed == Place::NoLane) {
      if (!s.wave.empty()) {
        // Every living lane is claimed this wave; try again next wave.
        s.admission.return_front(*job);
        break;
      }
      // An empty wave saw every lane, so no living lane can ever serve
      // this job (lane starts only move later): abandon it loudly rather
      // than spin.
      abandon(s, *job, /*was_placed=*/false,
              std::max(job->ready, job->arrival));
      continue;
    }
    if (!d.on_host) {
      d.device_schedule = s.fleet.cse_schedule(d.lane).rebased(d.start);
      // First dispatch at or after an Open breaker's cooldown end is the
      // probe.
      if (s.fleet.breaker(d.lane).state() == BreakerState::Open) {
        s.fleet.begin_probe(d.lane, d.start);
      }
    }
    s.claimed[d.lane] = true;
    s.wave.push_back(std::move(d));
  }
  return !s.wave.empty();
}

/// Where one wave index reads its result: a memo entry's result and metrics
/// fold for a hit, or a fresh run (no fold) for a miss or in-wave duplicate.
struct WaveSlot {
  const SimResult* result = nullptr;
  std::optional<obs::MetricsFold>* fold = nullptr;
};

/// One executed wave: a slot per wave index.  Hits point into the memo,
/// misses and in-wave duplicates into `fresh`, which owns the wave's engine
/// runs until fold_wave() moves them into the memo.
struct WaveResults {
  WaveMisses misses;              // distinct missing keys, first-seen
  std::vector<SimResult> fresh;   // one engine run per miss
  std::vector<WaveSlot> slot;     // per wave index
};

/// Execution stage: worker threads run the wave's already-scheduled engine
/// simulations.  A serial key pass first dedupes the wave against the memo
/// cache *and against itself* — only distinct missing keys reach the
/// workers, and every slot reads its result by pointer, so the wave's
/// outputs are exactly what one fresh engine run per dispatch would
/// produce, without copying a result per hit.  Nothing is inserted here:
/// the hit pointers must outlive the fold (see fold_wave).
WaveResults execute_wave(ServeState& s) {
  WaveResults out;
  out.slot.resize(s.wave.size());
  // Misses are rare once the memo is warm, so this stays empty (and
  // allocation-free) on most waves.
  std::vector<std::pair<std::size_t, std::size_t>> duplicates;  // (wave, miss)
  for (std::size_t i = 0; i < s.wave.size(); ++i) {
    SimKey key = make_sim_key(s.config, s.wave[i]);
    if (Memoized* hit = s.memo.find(key)) {
      out.slot[i] = WaveSlot{&hit->result, &hit->fold};
      ++s.report.sim_cache_hits;
      continue;
    }
    // Not memoized, so possibly an earlier miss of this wave.
    const std::uint64_t digest = key.digest();
    if (const auto m = out.misses.dedupe(std::move(key), digest, i)) {
      duplicates.emplace_back(i, *m);
      ++s.report.sim_cache_hits;
    } else {
      ++s.report.sim_cache_misses;
    }
  }
  const auto& misses = out.misses.misses();
  out.fresh = exec::run_batch(
      misses.size(),
      [&](std::size_t m) {
        const auto& d = s.wave[misses[m].first];
        return simulate_dispatch(s.config, *s.profiles[d.job.job_class], d);
      },
      s.config.jobs);
  for (std::size_t m = 0; m < misses.size(); ++m) {
    out.slot[misses[m].first].result = &out.fresh[m];
  }
  for (const auto& [i, m] : duplicates) out.slot[i].result = &out.fresh[m];
  return out;
}

/// The lane died under dispatch `d`: occupancy truncates at the death, the
/// job's work is lost, and the job either re-enters its tenant queue at the
/// head (ready no earlier than the death it witnessed) or exhausts its
/// serve-layer retry budget.
void fold_lost(ServeState& s, const Dispatch& d) {
  const SimTime death = s.fleet.kill_at(d.lane);
  s.fleet.occupy(d.lane, d.start, death - d.start);
  s.fleet.mark_dead(d.lane, death);
  s.fleet.note_lost(d.lane);
  if (s.fleet.breaker(d.lane).probe_in_flight()) s.fleet.abort_probe(d.lane);
  auto& outcome = s.report.outcomes[d.job.id];
  outcome.lost_attempts.push_back(
      LostAttempt{.lane = static_cast<std::uint32_t>(d.lane),
                  .start = d.start,
                  .end = death});
  s.report.makespan = std::max(s.report.makespan, death);
  if (d.job.attempt < s.config.retry_budget) {
    QueuedJob retry = d.job;
    retry.attempt += 1;
    retry.ready = death;  // a retry cannot start before the failure
    s.admission.requeue_front(retry);
    outcome.retries += 1;
  } else {
    abandon(s, d.job, /*was_placed=*/true, death);
  }
}

/// Dispatch `d` ran to completion with result `r`: advance the lane, feed
/// its storage and health state, and record the outcome.  `fold` is the
/// memo entry's metrics fold when `r` is a memo hit, nullptr for a fresh run.
void fold_completed(ServeState& s, const Dispatch& d, const SimResult& r,
                    std::optional<obs::MetricsFold>* fold) {
  const SimTime end = d.start + r.service;
  s.fleet.occupy(d.lane, d.start, r.service);
  s.fleet.note_outcome(d.lane, r.migrations, r.power_losses, r.faults);
  if (r.storage.driven) {
    // Reclaim pressure also derates the lane's CSE for future placements.
    s.fleet.note_storage(d.lane, r.storage.host_pages,
                         r.storage.reclaim_pages + r.storage.meta_pages,
                         r.storage.resets, r.storage.reclaim_time);
  }
  s.admission.note_completed(d.job.tenant);
  if (!d.on_host) {
    // Health feedback: exhausted fault episodes, migrations and power
    // cycles weigh the lane's breaker score; a probe resolves its HalfOpen
    // state instead.
    s.fleet.record_health(d.lane, end,
                          static_cast<double>(r.faults_exhausted) +
                              2.0 * r.migrations + 4.0 * r.power_losses);
  }
  auto& outcome = s.report.outcomes[d.job.id];
  outcome.lane = static_cast<std::int32_t>(d.lane);
  outcome.on_host = d.on_host;
  outcome.start = d.start;
  outcome.service = r.service;
  // Queue wait + service, not (start+service)-arrival: the latter loses a
  // ulp when start == arrival and would report latency < service.
  outcome.latency = (d.start - d.job.arrival) + r.service;
  outcome.resolved = end;
  outcome.eq1_profit = d.eq1_profit;
  outcome.migrations = r.migrations;
  outcome.power_losses = r.power_losses;
  outcome.faults = r.faults;
  if (s.config.obs.enabled) {
    outcome.queue_wait = d.start - d.job.arrival;
    outcome.migration_overhead = r.migration_overhead;
    outcome.recovery_overhead = r.recovery_overhead;
    outcome.reclaim_time = r.storage.reclaim_time;
    outcome.storage_internal_pages =
        r.storage.reclaim_pages + r.storage.meta_pages;
    outcome.lines_csd = r.lines_csd;
    outcome.lines_host = r.lines_host;
    outcome.fault_events = r.fault_events;  // at most max_trace_faults_per_job
    for (auto& f : outcome.fault_events) {
      f.time = d.start + (f.time - SimTime::zero());  // job → fleet time
    }
    // Submission-order fold of the per-job engine registries: merge is
    // associative, so this equals one registry fed serially no matter how
    // many worker threads ran the wave.  Lost attempts are not merged —
    // the registry reflects service that actually completed.  A memo hit
    // resolves its entry's targets once and replays them on every later
    // hit: the same merge, without the name lookups.
    if (fold == nullptr) {
      s.report.metrics.merge(r.metrics);
    } else {
      if (!*fold) *fold = s.report.metrics.resolve_fold(r.metrics);
      (*fold)->apply();
    }
  }
  s.report.makespan = std::max(s.report.makespan, end);
}

/// Fold stage (serial, submission order): measured service times advance
/// the lane clocks before the next wave's decisions.  The wave's fresh runs
/// enter the memo only after the fold, in first-seen order: an insert may
/// evict an entry a hit slot still points at, and no find() happens between
/// execute_wave's lookups and these inserts, so the cache's contents,
/// evictions and hit/miss counts are those of inserting straight after the
/// batch.
void fold_wave(ServeState& s, WaveResults results) {
  for (std::size_t i = 0; i < s.wave.size(); ++i) {
    const Dispatch& d = s.wave[i];
    const WaveSlot& slot = results.slot[i];
    // kill_at is infinity on host lanes.
    if (d.start + slot.result->service > s.fleet.kill_at(d.lane)) {
      fold_lost(s, d);
    } else {
      fold_completed(s, d, *slot.result, slot.fold);
    }
  }
  const auto& misses = results.misses.misses();
  for (std::size_t m = 0; m < misses.size(); ++m) {
    s.memo.insert(misses[m].key, std::move(results.fresh[m]));
  }
}

/// FNV-1a over every outcome, lane counter and breaker transition.
std::uint64_t report_digest(const ServeReport& report) {
  std::uint64_t h = kFnvOffset;
  for (const auto& o : report.outcomes) {
    h = fnv1a(h, o.id);
    h = fnv1a(h, o.tenant);
    h = fnv1a(h, o.rejected ? 1 : 0);
    h = fnv1a(h, (o.deadline_rejected ? 1 : 0) |
                     (o.deadline_missed ? 2 : 0) |
                     (o.retry_exhausted ? 4 : 0));
    h = fnv1a(h, o.retries);
    h = fnv1a(h, double_bits(o.resolved.seconds()));
    for (const auto& a : o.lost_attempts) {
      h = fnv1a(h, a.lane);
      h = fnv1a(h, double_bits(a.start.seconds()));
      h = fnv1a(h, double_bits(a.end.seconds()));
    }
    h = fnv1a(h, static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(o.lane)));
    h = fnv1a(h, double_bits(o.start.seconds()));
    h = fnv1a(h, double_bits(o.service.value()));
    h = fnv1a(h, o.migrations);
    h = fnv1a(h, o.power_losses);
    h = fnv1a(h, o.faults);
  }
  for (const auto& lane : report.lanes) {
    h = fnv1a(h, lane.jobs);
    h = fnv1a(h, double_bits(lane.busy.value()));
    h = fnv1a(h, lane.lost_jobs);
    h = fnv1a(h, double_bits(lane.died_at.seconds()));
    h = fnv1a(h, lane.storage_host_pages);
    h = fnv1a(h, lane.storage_internal_pages);
    h = fnv1a(h, lane.storage_resets);
    h = fnv1a(h, double_bits(lane.reclaim_time.value()));
  }
  for (const auto& lane_transitions : report.breaker_transitions) {
    h = fnv1a(h, lane_transitions.size());
    for (const auto& tr : lane_transitions) {
      h = fnv1a(h, static_cast<std::uint64_t>(tr.from) * 16 +
                       static_cast<std::uint64_t>(tr.to));
      h = fnv1a(h, double_bits(tr.time.seconds()));
      h = fnv1a(h, double_bits(tr.score));
    }
  }
  return h;
}

/// Serve-level metrics and snapshots — all derived serially from the
/// finished aggregates, so they inherit the report's determinism.
void export_metrics(ServeState& s) {
  const ServeConfig& config = s.config;
  ServeReport& report = s.report;
  auto& m = report.metrics;
  m.counter("serve.offered").add(config.total_jobs);
  m.counter("serve.admitted").add(report.admitted);
  m.counter("serve.rejected").add(report.rejected);
  m.counter("serve.completed").add(report.completed);
  m.counter("serve.jobs.csd").add(report.csd_jobs);
  m.counter("serve.jobs.host").add(report.host_jobs);
  m.counter("serve.deadline_rejected").add(report.deadline_rejected);
  m.counter("serve.deadline_missed").add(report.deadline_missed);
  m.counter("serve.retry_exhausted").add(report.retry_exhausted);
  m.counter("serve.retried").add(report.retried);
  m.counter("serve.lost_in_flight").add(report.lost_in_flight);
  m.counter("serve.devices_failed").add(report.devices_failed);
  auto& latency_h = m.histogram("serve.latency_s");
  auto& service_h = m.histogram("serve.service_s");
  auto& wait_h = m.histogram("serve.queue_wait_s");
  for (const auto& o : report.outcomes) {
    if (o.rejected) continue;
    latency_h.record(o.latency.value());
    service_h.record(o.service.value());
    wait_h.record(o.queue_wait.value());
  }
  for (std::uint32_t t = 0; t < report.tenants.size(); ++t) {
    const auto& ts = report.tenants[t];
    const std::string p = "serve.tenant." + std::to_string(t) + ".";
    m.counter(p + "offered").add(ts.offered);
    m.counter(p + "admitted").add(ts.admitted);
    m.counter(p + "rejected").add(ts.rejected);
    m.counter(p + "deadline_rejected").add(ts.deadline_rejected);
    m.counter(p + "dispatched").add(ts.dispatched);
    m.counter(p + "completed").add(ts.completed);
    m.counter(p + "deadline_missed").add(ts.deadline_missed);
    m.counter(p + "retried").add(ts.retried);
    m.counter(p + "retry_exhausted").add(ts.retry_exhausted);
    m.gauge(p + "wfq_weight").set(config.tenants[t].weight);
    m.gauge(p + "max_queue_depth").set(static_cast<double>(s.max_queue[t]));
  }
  for (std::size_t lane = 0; lane < report.lanes.size(); ++lane) {
    const auto& ls = report.lanes[lane];
    const std::string p = "serve.lane." + std::to_string(lane) + ".";
    m.counter(p + "jobs").add(ls.jobs);
    m.counter(p + "migrations").add(ls.migrations);
    m.counter(p + "power_losses").add(ls.power_losses);
    m.counter(p + "faults").add(ls.faults);
    m.counter(p + "lost_jobs").add(ls.lost_jobs);
    m.gauge(p + "utilization").set(report.utilization(lane));
    if (ls.died_at < SimTime::infinity()) {
      m.gauge(p + "died_at_s").set(ls.died_at.seconds());
    }
    // Storage-backend activity, only for lanes that actually drove a
    // backend — persist-free runs keep the clean metric schema.
    if (ls.storage_host_pages + ls.storage_internal_pages > 0) {
      m.counter(p + "storage.host_pages").add(ls.storage_host_pages);
      m.counter(p + "storage.internal_pages").add(ls.storage_internal_pages);
      m.counter(p + "storage.resets").add(ls.storage_resets);
      m.gauge(p + "storage.reclaim_time_s").set(ls.reclaim_time.value());
      m.gauge(p + "storage.wa").set(ls.storage_write_amplification());
      if (lane < s.fleet.device_count()) {
        m.gauge(p + "storage.derate").set(s.fleet.derate(lane));
      }
    }
  }
  // Breaker histories, only for lanes whose breaker actually moved — no
  // serve.breaker.* noise in a healthy run.
  for (std::size_t k = 0; k < report.breaker_transitions.size(); ++k) {
    const auto& trs = report.breaker_transitions[k];
    if (trs.empty()) continue;
    const std::string p = "serve.breaker." + std::to_string(k) + ".";
    std::uint64_t opened = 0, reclosed = 0;
    for (const auto& tr : trs) {
      if (tr.to == BreakerState::Open) ++opened;
      if (tr.to == BreakerState::Closed) ++reclosed;
    }
    m.counter(p + "transitions").add(trs.size());
    m.counter(p + "opened").add(opened);
    m.counter(p + "reclosed").add(reclosed);
  }
  report.snapshots = build_snapshots(report, config.obs);
}

/// Final stage: aggregate the per-job outcomes and lane/tenant state into
/// the report — checking that every offered job is accounted exactly once —
/// then digest it and export the metrics.
ServeReport finish(ServeState& s) {
  const ServeConfig& config = s.config;
  ServeReport& report = s.report;
  // Deaths that happened inside the observed horizon but caught the lane
  // idle still count as failures.
  for (std::size_t k = 0; k < s.fleet.device_count(); ++k) {
    if (s.fleet.alive(k) && s.fleet.kill_at(k) <= report.makespan) {
      s.fleet.mark_dead(k, s.fleet.kill_at(k));
    }
  }
  report.fleet_size = s.fleet.device_count();
  report.host_lanes = config.fleet.host_lanes;
  report.tenant_count = config.tenants.size();
  report.total_jobs = config.total_jobs;
  report.offered_load = config.offered_load;
  report.seed = config.seed;
  report.sim_cache_evictions = s.memo.evictions();
  report.bid_cache_hits = s.bids.hits;
  report.bid_cache_misses = s.bids.misses;
  std::vector<double> latencies;
  latencies.reserve(report.outcomes.size());
  for (const auto& o : report.outcomes) {
    if (o.rejected) {
      report.rejected += 1;
      continue;
    }
    if (o.deadline_rejected) {
      report.deadline_rejected += 1;
      continue;
    }
    report.admitted += 1;
    report.retried += o.retries;
    report.lost_in_flight += o.lost_attempts.size();
    if (o.deadline_missed) {
      report.deadline_missed += 1;
      continue;
    }
    if (o.retry_exhausted) {
      report.retry_exhausted += 1;
      continue;
    }
    report.completed += 1;
    latencies.push_back(o.latency.value());
    if (o.on_host) {
      report.host_jobs += 1;
    } else {
      report.csd_jobs += 1;
    }
  }
  ISP_CHECK(report.admitted + report.rejected + report.deadline_rejected ==
                config.total_jobs,
            "job accounting leak: " << report.admitted << " + "
                                    << report.rejected << " + "
                                    << report.deadline_rejected << " != "
                                    << config.total_jobs);
  // The failure-domain conservation identity (terminal form: nothing is
  // in flight or queued once the loop drains).
  ISP_CHECK(report.admitted == report.completed + report.deadline_missed +
                                   report.retry_exhausted,
            "admitted jobs leaked: "
                << report.admitted << " != " << report.completed << " + "
                << report.deadline_missed << " + " << report.retry_exhausted);
  report.tenants.reserve(s.admission.tenant_count());
  for (std::uint32_t t = 0; t < s.admission.tenant_count(); ++t) {
    report.tenants.push_back(s.admission.stats(t));
  }
  report.lanes.reserve(s.fleet.lane_count());
  for (std::size_t lane = 0; lane < s.fleet.lane_count(); ++lane) {
    report.lanes.push_back(s.fleet.stats(lane));
    if (lane < s.fleet.device_count() && !s.fleet.alive(lane)) {
      report.devices_failed += 1;
    }
  }
  report.breaker_transitions.reserve(s.fleet.device_count());
  for (std::size_t k = 0; k < s.fleet.device_count(); ++k) {
    report.breaker_transitions.push_back(s.fleet.breaker(k).transitions());
  }
  if (report.makespan.seconds() > 0.0) {
    report.throughput = static_cast<double>(report.completed) /
                        report.makespan.seconds();
  }
  report.rejection_rate = static_cast<double>(report.rejected) /
                          static_cast<double>(config.total_jobs);
  // Exact nearest-rank percentiles, selected without a full sort; the obs
  // histogram's bucketed percentile cross-checks these within its error
  // bound in serve_test.
  report.p50_latency = Seconds{obs::percentile_select(latencies, 0.50)};
  report.p99_latency = Seconds{obs::percentile_select(latencies, 0.99)};
  report.digest = report_digest(report);
  if (config.obs.enabled) export_metrics(s);
  return std::move(report);
}

}  // namespace

ServeReport serve(const ServeConfig& config) {
  ISP_CHECK(!config.tenants.empty(), "serve needs at least one tenant");
  ISP_CHECK(!config.job_classes.empty(), "serve needs at least one job class");
  ISP_CHECK(config.total_jobs >= 1, "serve needs at least one job");
  ISP_CHECK(config.offered_load > 0.0, "offered load must be positive");

  ServeState s(config);
  // Per-device kill schedule, fully known before the loop: the explicit
  // schedule min-folded with a seed-deterministic exponential first arrival
  // per device when a DeviceFailure rate is armed.  Decisions only ever
  // *react* to a death (a lane is skipped once its candidate start reaches
  // its kill instant); they never steer around a future one.  The fleet
  // holds the schedule (set_kill_at min-folds), so its ready-order and
  // feasibility queries skip doomed lanes.
  for (const auto& k : config.kill_devices) {
    ISP_CHECK(k.device < s.fleet.device_count(),
              "kill-device " << k.device << " is not a CSD lane (fleet has "
                             << s.fleet.device_count() << " devices)");
    ISP_CHECK(k.at.seconds() >= 0.0, "kill-device time must be non-negative");
    s.fleet.set_kill_at(k.device, k.at);
  }
  const double fail_rate = config.fault.rate(fault::Site::DeviceFailure);
  if (fail_rate > 0.0) {
    for (std::size_t k = 0; k < s.fleet.device_count(); ++k) {
      const double u =
          hash_unit(splitmix64(config.seed ^ (0xDEF1CE00ULL + k)));
      s.fleet.set_kill_at(
          k, SimTime::zero() + Seconds{-std::log1p(-u) / fail_rate});
    }
  }

  // admit → decide → execute (memo + dedupe + run_batch) → fold, wave by
  // wave, until the queues drain and no arrivals are left.
  while (decide_wave(s)) fold_wave(s, execute_wave(s));
  return finish(s);
}

std::string ServeReport::to_json() const {
  std::string out;
  out.reserve(2048);
  char buf[512];
  const auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  add("{\n");
  add("  \"fleet\": %zu,\n", fleet_size);
  add("  \"host_lanes\": %zu,\n", host_lanes);
  add("  \"tenants\": %zu,\n", tenant_count);
  add("  \"total_jobs\": %llu,\n",
      static_cast<unsigned long long>(total_jobs));
  add("  \"offered_load\": %.6f,\n", offered_load);
  add("  \"seed\": %llu,\n", static_cast<unsigned long long>(seed));
  add("  \"admitted\": %llu,\n", static_cast<unsigned long long>(admitted));
  add("  \"rejected\": %llu,\n", static_cast<unsigned long long>(rejected));
  add("  \"completed\": %llu,\n", static_cast<unsigned long long>(completed));
  add("  \"csd_jobs\": %llu,\n", static_cast<unsigned long long>(csd_jobs));
  add("  \"host_jobs\": %llu,\n", static_cast<unsigned long long>(host_jobs));
  add("  \"deadline_rejected\": %llu,\n",
      static_cast<unsigned long long>(deadline_rejected));
  add("  \"deadline_missed\": %llu,\n",
      static_cast<unsigned long long>(deadline_missed));
  add("  \"retry_exhausted\": %llu,\n",
      static_cast<unsigned long long>(retry_exhausted));
  add("  \"retried\": %llu,\n", static_cast<unsigned long long>(retried));
  add("  \"lost_in_flight\": %llu,\n",
      static_cast<unsigned long long>(lost_in_flight));
  add("  \"devices_failed\": %llu,\n",
      static_cast<unsigned long long>(devices_failed));
  add("  \"makespan_s\": %.6f,\n", makespan.seconds());
  add("  \"throughput_jobs_per_s\": %.6f,\n", throughput);
  add("  \"rejection_rate\": %.6f,\n", rejection_rate);
  add("  \"p50_latency_s\": %.6f,\n", p50_latency.value());
  add("  \"p99_latency_s\": %.6f,\n", p99_latency.value());
  out += "  \"per_tenant\": [\n";
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const auto& s = tenants[t];
    add("    {\"offered\": %llu, \"admitted\": %llu, \"rejected\": %llu, "
        "\"deadline_rejected\": %llu, \"dispatched\": %llu, "
        "\"completed\": %llu, \"deadline_missed\": %llu, \"retried\": %llu, "
        "\"retry_exhausted\": %llu}%s\n",
        static_cast<unsigned long long>(s.offered),
        static_cast<unsigned long long>(s.admitted),
        static_cast<unsigned long long>(s.rejected),
        static_cast<unsigned long long>(s.deadline_rejected),
        static_cast<unsigned long long>(s.dispatched),
        static_cast<unsigned long long>(s.completed),
        static_cast<unsigned long long>(s.deadline_missed),
        static_cast<unsigned long long>(s.retried),
        static_cast<unsigned long long>(s.retry_exhausted),
        t + 1 < tenants.size() ? "," : "");
  }
  out += "  ],\n";
  out += "  \"per_lane\": [\n";
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const auto& s = lanes[lane];
    // died_at_s is -1 while the lane is alive (JSON has no infinity).
    add("    {\"kind\": \"%s\", \"jobs\": %llu, \"busy_s\": %.6f, "
        "\"utilization\": %.6f, \"migrations\": %u, \"power_losses\": %u, "
        "\"faults\": %llu, \"lost_jobs\": %llu, \"died_at_s\": %.6f}%s\n",
        lane < fleet_size ? "csd" : "host",
        static_cast<unsigned long long>(s.jobs), s.busy.value(),
        utilization(lane), s.migrations, s.power_losses,
        static_cast<unsigned long long>(s.faults),
        static_cast<unsigned long long>(s.lost_jobs),
        s.died_at < SimTime::infinity() ? s.died_at.seconds() : -1.0,
        lane + 1 < lanes.size() ? "," : "");
  }
  out += "  ],\n";
  add("  \"digest\": \"0x%016llx\"\n",
      static_cast<unsigned long long>(digest));
  out += "}\n";
  return out;
}

}  // namespace isp::serve
