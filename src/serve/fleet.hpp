// A fleet of simulated CSDs (plus host fallback lanes) for the serving
// layer.
//
// One ActiveCpp run owns one SystemModel; a *server* multiplexes many
// concurrent jobs over N devices, each with its own CSE availability
// schedule (co-tenant load, GC) and a share of the host's link capacity.
// The Fleet tracks, per lane, when the lane next goes idle in fleet virtual
// time and what it has served so far; it never runs simulations itself —
// the server dispatches jobs, runs each job's engine simulation through
// exec::run_batch, and reports the measured service time back via occupy().
// It also owns the per-device state placement reads besides the busy
// clocks: each CSD's health breaker and its reclaim-derated CSE schedule.
//
// Lanes [0, devices) are CSDs; lanes [devices, devices + host_lanes) are
// host fallback slots for jobs Equation 1 prices off the device path.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "flash/backend.hpp"
#include "serve/breaker.hpp"
#include "sim/availability.hpp"
#include "system/config.hpp"

namespace isp::serve {

/// One CSD in the fleet: its time-varying CSE capacity, the static share of
/// host-link bandwidth its slot is provisioned with, and which
/// storage-management backend (FTL or ZNS) the device runs.
struct DeviceConfig {
  sim::AvailabilitySchedule cse_availability;  // in fleet virtual time
  double link_share = 1.0;                     // provisioned share, (0, 1]
  flash::BackendKind backend = flash::BackendKind::Ftl;
};

/// Fleet-level backend composition (`--backend ftl|zns|mixed`).  Mixed
/// alternates by device index (even lanes FTL, odd lanes ZNS), so any fleet
/// of two or more devices exercises both reclaim models side by side.
enum class BackendMix { Ftl, Zns, Mixed };

[[nodiscard]] const char* to_string(BackendMix mix);

struct FleetConfig {
  std::vector<DeviceConfig> devices;
  std::size_t host_lanes = 1;
  /// How many device links the host root complex can serve at full rate
  /// simultaneously; with more devices busy, each busy device's share
  /// degrades as fan_out / busy_count (capped at its provisioned share).
  std::size_t link_fan_out = 2;
  /// Hardware constants every device (and the host lanes) is built from.
  system::SystemConfig system = system::SystemConfig::paper_platform();

  /// A mildly heterogeneous fleet: device k runs at constant CSE
  /// availability 1.0 − skew·(k mod 4) — deterministic, no RNG — so
  /// placement has real differences to price.  `skew` must leave the
  /// slowest device with positive availability (skew in [0, 1/3)).
  /// `mix` assigns each device's storage backend (Mixed alternates by
  /// index: even FTL, odd ZNS).
  static FleetConfig make(std::size_t devices, std::size_t host_lanes = 1,
                          double skew = 0.05,
                          BackendMix mix = BackendMix::Ftl);
};

/// Per-lane serving statistics, aggregated over measured engine runs.
struct LaneStats {
  std::uint64_t jobs = 0;
  Seconds busy;                     // sum of measured service times
  std::uint32_t migrations = 0;     // jobs' runtime migrations (CSD lanes)
  std::uint32_t power_losses = 0;   // power cycles survived on this lane
  std::uint64_t faults = 0;         // injected faults across this lane's jobs
  std::uint64_t lost_jobs = 0;      // in-flight jobs lost to device death
  SimTime died_at = SimTime::infinity();  // infinity while the lane lives
  // Storage-backend activity folded from completed storage-driven jobs
  // (zero unless a job class persists its outputs).  internal = reclaim
  // copies + metadata programs; resets are block-granular erases.
  std::uint64_t storage_host_pages = 0;
  std::uint64_t storage_internal_pages = 0;
  std::uint64_t storage_resets = 0;
  Seconds reclaim_time;  // device-side reclaim stall absorbed by this lane

  /// Observed write amplification over everything this lane persisted so
  /// far (1.0 before any storage-driven job lands).
  [[nodiscard]] double storage_write_amplification() const {
    if (storage_host_pages == 0) return 1.0;
    return static_cast<double>(storage_host_pages + storage_internal_pages) /
           static_cast<double>(storage_host_pages);
  }
};

class Fleet {
 public:
  /// Every device lane gets its own health breaker built from `breaker`.
  explicit Fleet(FleetConfig config, BreakerConfig breaker = {});

  [[nodiscard]] const FleetConfig& config() const { return config_; }
  [[nodiscard]] std::size_t device_count() const {
    return config_.devices.size();
  }
  [[nodiscard]] std::size_t lane_count() const {
    return config_.devices.size() + config_.host_lanes;
  }
  [[nodiscard]] bool is_host_lane(std::size_t lane) const {
    return lane >= config_.devices.size();
  }
  [[nodiscard]] const DeviceConfig& device(std::size_t lane) const;

  /// When the lane last becomes idle (fleet virtual time).
  [[nodiscard]] SimTime busy_until(std::size_t lane) const {
    return busy_until_[lane];
  }

  /// Devices (not host lanes) still busy strictly after `t` — O(log n) off
  /// the sorted busy index.  Dead lanes count through their clamped
  /// busy_until.
  [[nodiscard]] std::size_t busy_devices_after(SimTime t) const;

  /// Link share a device gets when `busy_devices` devices (including
  /// itself) are drawing on the host link: provisioned share capped by
  /// fan_out / busy_devices.
  [[nodiscard]] double contended_link_share(std::size_t lane,
                                            std::size_t busy_devices) const;

  /// Record a dispatched job: the lane is busy over [start, start+service).
  /// `start` must be at or after the lane's current busy_until.
  void occupy(std::size_t lane, SimTime start, Seconds service);

  /// Fold a finished job's fault/migration counters into the lane's stats.
  void note_outcome(std::size_t lane, std::uint32_t migrations,
                    std::uint32_t power_losses, std::uint64_t faults);

  /// Fold a finished storage-driven job's backend activity into the lane's
  /// stats and, on a device lane, re-derive its reclaim derating (see
  /// cse_schedule()).  Bumps the lane epoch: the stats feed the Equation-1
  /// reclaim-wait and persist-cost terms.
  void note_storage(std::size_t lane, std::uint64_t host_pages,
                    std::uint64_t internal_pages, std::uint64_t resets,
                    Seconds reclaim_time);

  /// True while the lane has not suffered a permanent device failure.
  /// Host lanes never die.
  [[nodiscard]] bool alive(std::size_t lane) const {
    return stats_[lane].died_at == SimTime::infinity();
  }

  /// Kill a CSD lane permanently at fleet virtual time `at`.  Idempotent:
  /// a second kill of the same device keeps the first death instant.
  void mark_dead(std::size_t lane, SimTime at);

  /// Count an in-flight job lost to the lane's death (work already folded
  /// into busy/occupancy up to the truncation point stays counted).
  void note_lost(std::size_t lane);

  [[nodiscard]] const LaneStats& stats(std::size_t lane) const {
    return stats_[lane];
  }

  // ---- Incremental lane-state index (PR 7) -------------------------------
  //
  // The serving loop's decision phase needs three queries per job —
  // "earliest instant any lane could start", "next lane to free up", and
  // "devices busy after t" — that were all O(lanes) scans.  The index keeps
  // the *schedulable* lanes (living, not yet doomed by a registered kill)
  // in a flat vector sorted by (busy_until, lane), plus a sorted vector of
  // every device lane's busy_until, both re-seated by lower_bound on
  // occupy / mark_dead / set_kill_at.  Fleets are a handful to a few dozen
  // lanes, so a contiguous array beats a node-based tree on every query
  // and never allocates after construction.  Epochs version the state for the Eq.1 bid cache: a
  // lane's cached bid is valid only while its lane epoch (own busy / death
  // / breaker gate / storage stats) and the fleet epoch (any device's busy
  // or death — the link-contention input) both still match.  The fleet
  // owns every input that versioning covers, breakers and derated
  // schedules included, so no caller has to keep a copy in step.

  /// Register the lane's scheduled death (min-folds with earlier calls).
  /// serve() registers the full kill schedule before the first wave; a lane
  /// whose busy_until reaches its kill time leaves the schedulable set for
  /// good (busy_until only grows, so it can never start another job).
  void set_kill_at(std::size_t lane, SimTime at);
  [[nodiscard]] SimTime kill_at(std::size_t lane) const {
    return kill_at_[lane];
  }

  /// Bumped whenever this lane's busy_until, death, breaker gate or storage
  /// stats change.
  [[nodiscard]] std::uint64_t lane_epoch(std::size_t lane) const {
    return epoch_[lane];
  }
  /// Bumped whenever any *device* lane's busy_until or death changes (the
  /// shared link-contention input every device bid reads).
  [[nodiscard]] std::uint64_t fleet_epoch() const { return fleet_epoch_; }

  /// The earliest instant any schedulable lane could start a job arriving
  /// at `arrival` (breaker- and kill-aware; infinity when no lane
  /// qualifies).  Walks the busy-ordered index and stops as soon as no later
  /// lane can improve the bound (FleetIndex tests check it against a linear
  /// scan).
  [[nodiscard]] SimTime earliest_feasible_start(SimTime arrival) const;

  /// The earliest busy_until over schedulable, unclaimed lanes — the next
  /// wave decision instant.  Infinity when every such lane is claimed.
  [[nodiscard]] SimTime next_free(const std::vector<bool>& claimed) const;

  // ---- Device health and reclaim derating --------------------------------
  //
  // Each breaker mutation bumps the lane epoch only when the breaker's
  // ready_at() gate actually moves, so a quiet outcome never invalidates
  // cached bids.  Host lanes have neither a breaker nor a derating.

  /// The device lane's health breaker (see serve/breaker.hpp).
  [[nodiscard]] const CircuitBreaker& breaker(std::size_t lane) const;
  /// The dispatch starting at `start` is the lane's HalfOpen probe.
  void begin_probe(std::size_t lane, SimTime start);
  /// The lane's in-flight probe was lost to its death.
  void abort_probe(std::size_t lane);
  /// Fold a finished job's severity into the lane's breaker.  While a probe
  /// is in flight the finished job *is* the probe (a lane runs one job per
  /// wave): it resolves HalfOpen instead, clean iff severity is zero.
  void record_health(std::size_t lane, SimTime now, double severity);

  /// Fraction of the device's CSE capacity withheld for reclaim pressure:
  /// reclaim stall over busy time, capped at 1/2, quantised down to 1/64
  /// (zero for host lanes).
  [[nodiscard]] double derate(std::size_t lane) const {
    return is_host_lane(lane) ? 0.0 : derating_[lane].derate;
  }
  /// The device's base CSE schedule scaled by 1 − derate(lane): what
  /// placement prices and dispatches run against.
  [[nodiscard]] const sim::AvailabilitySchedule& cse_schedule(
      std::size_t lane) const;

 private:
  /// A device lane's reclaim derating; see derate() and cse_schedule().
  struct Derating {
    double derate = 0.0;
    std::optional<sim::AvailabilitySchedule> schedule;  // base × (1 − derate)
  };

  /// Re-seat `lane` in the index after its busy_until moved from
  /// `old_busy`, and bump the epochs.
  void reindex(std::size_t lane, SimTime old_busy);
  /// Drop (busy, lane) from ready_order_; a no-op if it is not there.
  void unready(SimTime busy, std::size_t lane);
  /// breaker(lane), writable; host lanes fail the same check.
  CircuitBreaker& mutable_breaker(std::size_t lane);

  FleetConfig config_;
  std::vector<SimTime> busy_until_;
  std::vector<LaneStats> stats_;
  /// Schedulable lanes (living, undoomed), sorted by (busy_until, lane).
  std::vector<std::pair<SimTime, std::size_t>> ready_order_;
  /// Every device lane's busy_until (dead lanes clamped), ascending.
  std::vector<SimTime> device_busy_sorted_;
  std::vector<SimTime> kill_at_;  // scheduled death; infinity = never
  std::vector<CircuitBreaker> breakers_;  // one per device lane
  std::vector<Derating> derating_;        // one per device lane
  std::vector<std::uint64_t> epoch_;
  std::uint64_t fleet_epoch_ = 0;
};

}  // namespace isp::serve
