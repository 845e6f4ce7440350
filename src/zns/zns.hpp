// Zoned-namespace flash backend: append-only zones, host-coordinated
// reclaim, no device-side GC.
//
// ZCSD (Lukken et al.) argues that computational storage over Zoned
// Namespaces removes exactly the contention term the paper's Equation 1
// prices for conventional SSDs: with append-only writes the device keeps no
// page-level mapping of its own, runs no background garbage collection, and
// space reclamation becomes an explicit host-coordinated operation
// (copy-forward the live extents of a victim zone, then zone_reset).  This
// file is that model, implemented against the flash::StorageBackend seam so
// a CsdDevice can run either backend (`CsdConfig::backend`).
//
// Zone state machine (NVMe ZNS §2.3, modelled states):
//
//     Empty ──append──▶ ImplicitlyOpen ──close──▶ Closed
//       │                    │                      │
//       │ open_zone          │ WP hits cap          │ append (reopen)
//       ▼                    ▼                      ▼
//     ExplicitlyOpen ──▶   Full ◀──finish_zone── (any open/closed)
//                            │
//                            │ reset_zone (live extents must be gone)
//                            ▼
//                          Empty          retire_zone ──▶ Offline (forever)
//
// At most `max_open_zones` zones are open (implicitly + explicitly) at once;
// opening one more implicitly closes the least-recently-opened zone, exactly
// like a ZNS controller shedding its open-zone resources.  Every zone
// carries a write pointer: appends land at the pointer and advance it
// monotonically until the zone fills (zone_append returns the assigned
// physical page, the ZNS "LBA assigned by the device").
//
// Data plane: the map, zone accounting, victim selection, the watermark
// loop and retirement are the shared erase-unit pool (flash/unit_pool.hpp)
// with a unit of one zone; the zone state machine and the open-zone LRU
// plug into it as UnitPool::Hooks.
//
// Durability (docs/fault-model.md "ZNS power loss"): the mapping *is* the
// append order, so — unlike the FTL — no per-write journal record exists.
// Data-page programs stamp (lpn, seq) into the page OOB area; a dedicated
// metadata zone holds an append-only journal of the only updates the OOB
// cannot reconstruct (trims) plus periodic checkpoints of the host-side
// map.  flash/metadata_log.hpp holds that durable state and the replay a
// remount runs.  Write pointers rebuild from the programmed prefix of each
// zone; open zones come back Closed (open state is volatile, as in the
// spec).
//
// Invariants (enforced and property-tested):
//   * a logical page maps to at most one valid physical page, and vice versa;
//   * per-zone live counts equal the number of valid pages in the zone;
//   * programmed pages are exactly the prefix [0, write_pointer) of a zone;
//   * Empty zones have write_pointer 0 and no live pages;
//   * open zones (implicit + explicit) never exceed max_open_zones;
//   * Empty + in-use + offline zone counts always sum to the zone total.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "flash/backend.hpp"
#include "flash/nand.hpp"
#include "flash/unit_pool.hpp"

namespace isp::obs {
class MetricsRegistry;
}

namespace isp::zns {

enum class ZoneState : std::uint8_t {
  Empty = 0,
  ImplicitlyOpen = 1,
  ExplicitlyOpen = 2,
  Closed = 3,
  Full = 4,
  Offline = 5,  // retired; never appendable again
};

[[nodiscard]] const char* to_string(ZoneState state);

struct ZnsConfig {
  flash::NandGeometry geometry;
  /// Consecutive physical blocks striped into one zone.
  std::uint32_t zone_blocks = 8;
  /// Open-zone resource limit (implicitly + explicitly open).
  std::uint32_t max_open_zones = 6;
  /// Zones reserved for the durable metadata journal/checkpoint region.
  std::uint32_t meta_zones = 1;
  /// Fraction of data-zone capacity hidden from the logical space (spare
  /// zones for reclaim to copy into).
  double overprovision = 0.125;
  /// Run host-coordinated reclaim when Empty data zones drop to this many.
  std::uint32_t reclaim_low_watermark = 2;
  /// Stop reclaiming when Empty data zones recover to this many.
  std::uint32_t reclaim_high_watermark = 4;
  flash::JournalConfig journal;
};

struct ZnsStats {
  std::uint64_t host_appends = 0;    // data pages appended for the host
  std::uint64_t reclaim_copies = 0;  // live pages copied forward by reclaim
  std::uint64_t meta_appends = 0;    // journal + checkpoint pages programmed
  std::uint64_t zone_resets = 0;     // zones reset (reclaim + explicit)
  std::uint64_t erases = 0;          // block-granular erases behind resets
  std::uint64_t reclaim_invocations = 0;
  std::uint64_t checkpoint_folds = 0;
  std::uint64_t implicit_closes = 0;  // opens shed to respect the limit
  std::uint64_t zones_retired = 0;
  std::uint64_t recoveries = 0;  // successful remounts after power loss

  [[nodiscard]] double write_amplification() const {
    if (host_appends == 0) return 1.0;
    return static_cast<double>(host_appends + reclaim_copies + meta_appends) /
           static_cast<double>(host_appends);
  }
};

/// The zoned-namespace backend.  Untimed and deterministic, like the Ftl:
/// callers charge NandTiming for the traffic the stats report.
class ZnsDevice final : public flash::StorageBackend,
                        private flash::UnitPool::Hooks {
 public:
  explicit ZnsDevice(ZnsConfig config);

  /// Every check the constructor makes on `config` (the same Error
  /// messages), without allocating the maps: returns the logical page count
  /// a feasible config exposes.
  [[nodiscard]] static std::uint64_t checked_logical_pages(
      const ZnsConfig& config);

  // ---- StorageBackend seam ---------------------------------------------
  [[nodiscard]] flash::BackendKind kind() const override {
    return flash::BackendKind::Zns;
  }
  [[nodiscard]] std::uint64_t logical_pages() const override {
    return pool_.logical_pages();
  }
  [[nodiscard]] std::optional<flash::Ppn> translate(
      flash::Lpn lpn) const override {
    return pool_.translate(lpn);
  }
  /// Extent ops (flash/backend.hpp): host writes append to the
  /// device-chosen active zone (implicitly opening it as needed) and may
  /// trigger watermark reclaim.
  void write_span(flash::Lpn first, std::uint64_t count) override {
    pool_.write_span(first, count);
  }
  void trim_span(flash::Lpn first, std::uint64_t count) override {
    pool_.trim_span(first, count);
  }
  std::uint64_t read_span(flash::Lpn first, std::uint64_t count,
                          std::vector<flash::Ppn>* out) const override {
    return pool_.read_span(first, count, out);
  }
  [[nodiscard]] bool journaling() const override {
    return pool_.journaling();
  }
  [[nodiscard]] bool mounted() const override { return pool_.mounted(); }
  /// Trim records buffered in the volatile journal tail right now.
  [[nodiscard]] std::uint64_t journal_tail_updates() const {
    return pool_.log().buffered();
  }
  flash::StorageCrash power_loss() override;
  flash::StorageRecovery recover() override;
  [[nodiscard]] double write_amplification() const override {
    return counters().write_amplification();
  }
  [[nodiscard]] flash::StorageCounters counters() const override {
    return pool_.counters();
  }
  void record_metrics(obs::MetricsRegistry& registry) const override;
  void check_invariants() const override;
  /// The remount-time subset of check_invariants(): O(zones) summary
  /// cross-checks, deep per-page checks only on zones dirtied since the
  /// last checkpoint fold.  recover() runs this on every remount; public so
  /// tests can check it alongside the full sweep.
  void check_invariants_incremental() const;

  // ---- Zone management (the ZNS command set) ---------------------------
  [[nodiscard]] std::uint64_t zone_count() const { return zones_.size(); }
  [[nodiscard]] std::uint64_t data_zones() const {
    return zones_.size() - config_.meta_zones;
  }
  [[nodiscard]] std::uint32_t zone_pages() const {
    return pool_.unit_pages();
  }
  [[nodiscard]] ZoneState zone_state(std::uint64_t zone) const;
  /// Pages programmed in the zone so far (monotone between resets).
  [[nodiscard]] std::uint32_t write_pointer(std::uint64_t zone) const;
  [[nodiscard]] std::uint32_t live_pages(std::uint64_t zone) const;
  /// Zones currently open (implicitly + explicitly).
  [[nodiscard]] std::uint32_t open_zones() const { return open_count_; }
  /// Empty data zones (the reclaim watermark currency).
  [[nodiscard]] std::uint32_t free_zones() const {
    return pool_.free_units();
  }
  /// Sum of every data zone's write pointer (gauge: total WP advance).
  [[nodiscard]] std::uint64_t write_pointer_pages() const;
  /// The zone pool, for tests that pin its state.
  [[nodiscard]] const flash::UnitPool& pool() const { return pool_; }

  /// Append one logical page to `zone`; returns the physical page the
  /// device assigned (the write pointer's slot).  Empty and Closed zones
  /// open implicitly; Full and Offline zones reject.
  flash::Ppn zone_append(std::uint64_t zone, flash::Lpn lpn);

  /// Explicitly open an Empty or Closed zone.  Sheds the least-recently
  /// opened zone when the open-zone limit is hit.
  void open_zone(std::uint64_t zone);
  /// Close an open zone (keeps its write pointer; reopenable by append).
  void close_zone(std::uint64_t zone);
  /// Finish a zone: no further appends regardless of its write pointer.
  void finish_zone(std::uint64_t zone);
  /// Reset a zone to Empty.  Every page must be stale (trimmed or
  /// overwritten) — resetting live data would lose it silently, so the
  /// model rejects it loudly; reclaim() copies live pages out first.
  void reset_zone(std::uint64_t zone);
  /// Decommission a zone (grown-bad media): copy its live pages forward,
  /// then take it Offline forever.
  void retire_zone(std::uint64_t zone);

  /// One host-coordinated reclaim pass: pick Full victims with the fewest
  /// live pages, copy the live extents forward, reset the victims, until
  /// the Empty-zone pool recovers to the high watermark (or no victim
  /// yields space).  Writes invoke this at the low watermark; hosts may
  /// also call it explicitly at idle.
  void reclaim();

  [[nodiscard]] ZnsStats stats() const;
  [[nodiscard]] const ZnsConfig& config() const { return config_; }

 private:
  struct Zone {
    ZoneState state = ZoneState::Empty;
    std::uint64_t opened_at = 0;  // open-order stamp, for LRU shedding
  };

  [[nodiscard]] bool is_open(const Zone& z) const {
    return z.state == ZoneState::ImplicitlyOpen ||
           z.state == ZoneState::ExplicitlyOpen;
  }
  void check_data_zone(std::uint64_t zone, const char* what) const;
  /// Transition `zone` into the given open state, shedding the LRU open
  /// zone first when the limit is hit.
  void make_open(std::uint64_t zone, ZoneState state);
  /// The zone state machine's invariants (the pool checks the pages).
  void check_zones() const;

  // ---- UnitPool::Hooks ---------------------------------------------------
  /// An append target must be open: (re)open it implicitly.
  void open(std::uint64_t zone) override;
  /// The zone filled: it leaves the open-resource set on its own.
  void filled(std::uint64_t zone) override;
  /// A reset zone is Empty again; a retired one goes Offline.
  void erased(std::uint64_t zone) override;

  ZnsConfig config_;
  // Volatile: lost on power_loss, rebuilt by recover().
  std::vector<Zone> zones_;
  std::uint32_t open_count_ = 0;  // implicit + explicit opens
  std::uint64_t open_stamp_ = 0;  // LRU clock for implicit shedding
  std::uint64_t zone_resets_ = 0;
  std::uint64_t implicit_closes_ = 0;
  flash::UnitPool pool_;
};

}  // namespace isp::zns
