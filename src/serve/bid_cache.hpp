// Per-(job class, device lane) Equation-1 bid cache for the serving hot
// path.
//
// Every wave decision re-prices each candidate device lane for the picked
// job: an AvailabilitySchedule::finish_time integral and the busy-device
// count behind the contended link share.  Between decisions most lanes
// haven't changed at all, so this bid *core* is a pure function of
//
//   (job class, lane state epoch, fleet epoch, candidate start)
//
// where the epochs come from Fleet's incremental index: the lane epoch
// covers the lane's own busy_until / death / breaker gate / storage stats
// (and with them the reclaim-derated CSE schedule the finish time
// integrates, which Fleet::note_storage re-derives), and the fleet epoch
// covers every device's busy_until (the shared link-contention input).  A
// slot whose epochs and start still match is a core hit — finish_time,
// the contended share, the projected completion and the effective
// availability are reused bit for bit; hits and misses count cores only.
//
// The lanes compete on projected completion alone, so the Equation-1
// profit (plan::net_profit_under_contention) is priced for the winning
// device only, the one profit placement reads.  It additionally depends on
// the job's arrival (queue wait) and the host-side wait, so it is cached on
// the slot by those two and otherwise recombined from the cached core —
// the same arithmetic on identical inputs, so cached and fresh bids are
// indistinguishable (serve_test pins the serving reports, traces and
// metrics to golden digests).  Any other lane's profit can be priced on
// demand through the same function.
//
// Invalidation is purely by comparison: nothing is evicted, a stale slot is
// simply overwritten on the next miss.  The cache is O(classes × lanes)
// memory and lives for one serve() call.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace isp::serve {

/// One memoized device-lane bid.  `core_valid` gates the placement terms;
/// `profit_valid` additionally gates the Equation-1 profit (which also
/// depends on the job's arrival and the host-side wait).
struct CachedBid {
  std::uint64_t lane_epoch = 0;
  std::uint64_t fleet_epoch = 0;
  bool core_valid = false;
  bool starved = false;  // schedule starves the work: finish_time infinite
  SimTime start;
  SimTime done;
  double share = 1.0;
  double avail_eff = 1.0;
  bool profit_valid = false;
  SimTime arrival;
  Seconds host_wait;
  Seconds profit;
};

class BidCache {
 public:
  BidCache(std::size_t classes, std::size_t device_lanes)
      : device_lanes_(device_lanes), slots_(classes * device_lanes) {}

  [[nodiscard]] CachedBid& slot(std::size_t job_class, std::size_t lane) {
    return slots_[job_class * device_lanes_ + lane];
  }

  std::uint64_t hits = 0;    // core hits (placement terms reused)
  std::uint64_t misses = 0;  // full recomputes (slot overwritten)

 private:
  std::size_t device_lanes_;
  std::vector<CachedBid> slots_;
};

}  // namespace isp::serve
