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

#include "common/bitset.hpp"
#include "common/units.hpp"
#include "flash/backend.hpp"
#include "flash/metadata_log.hpp"
#include "flash/nand.hpp"

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
class ZnsDevice final : public flash::StorageBackend {
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
    return logical_pages_;
  }
  /// Host write of one logical page: an append to the device-chosen active
  /// zone (implicitly opening it as needed).  May trigger watermark reclaim.
  void write(flash::Lpn lpn) override;
  [[nodiscard]] std::optional<flash::Ppn> translate(
      flash::Lpn lpn) const override;
  void trim(flash::Lpn lpn) override;
  /// Batched extent ops (flash/backend.hpp contract: bit-for-bit the scalar
  /// loop's state, stats and journal, with the per-page open/watermark/fold
  /// checks hoisted out of the bulk runs).
  void write_span(flash::Lpn first, std::uint64_t count) override;
  void trim_span(flash::Lpn first, std::uint64_t count) override;
  std::uint64_t read_span(flash::Lpn first, std::uint64_t count,
                          std::vector<flash::Ppn>* out) const override;
  [[nodiscard]] bool journaling() const override {
    return config_.journal.enabled;
  }
  [[nodiscard]] bool mounted() const override { return mounted_; }
  flash::StorageCrash power_loss() override;
  flash::StorageRecovery recover() override;
  [[nodiscard]] double gc_pressure() const override;
  [[nodiscard]] double write_amplification() const override {
    return stats_.write_amplification();
  }
  [[nodiscard]] flash::StorageCounters counters() const override;
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
  [[nodiscard]] std::uint32_t zone_pages() const { return zone_pages_; }
  [[nodiscard]] ZoneState zone_state(std::uint64_t zone) const;
  /// Pages programmed in the zone so far (monotone between resets).
  [[nodiscard]] std::uint32_t write_pointer(std::uint64_t zone) const;
  [[nodiscard]] std::uint32_t live_pages(std::uint64_t zone) const;
  /// Zones currently open (implicitly + explicitly).
  [[nodiscard]] std::uint32_t open_zones() const { return open_count_; }
  /// Empty data zones (the reclaim watermark currency).
  [[nodiscard]] std::uint32_t free_zones() const { return free_count_; }
  /// Sum of every data zone's write pointer (gauge: total WP advance).
  [[nodiscard]] std::uint64_t write_pointer_pages() const;

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
  /// yields space).  write() invokes this at the low watermark; hosts may
  /// also call it explicitly at idle.
  void reclaim();

  [[nodiscard]] const ZnsStats& stats() const { return stats_; }
  [[nodiscard]] const ZnsConfig& config() const { return config_; }

 private:
  struct Zone {
    ZoneState state = ZoneState::Empty;
    std::uint32_t write_pointer = 0;  // programmed-page prefix length
    std::uint32_t live = 0;           // valid (mapped) pages in the zone
    std::uint64_t opened_at = 0;      // open-order stamp, for LRU shedding
  };

  [[nodiscard]] flash::Ppn zone_first_page(std::uint64_t zone) const;
  [[nodiscard]] std::uint64_t page_zone(flash::Ppn ppn) const;
  [[nodiscard]] bool is_open(const Zone& z) const {
    return z.state == ZoneState::ImplicitlyOpen ||
           z.state == ZoneState::ExplicitlyOpen;
  }
  /// Transition `zone` into the given open state, shedding the LRU open
  /// zone first when the limit is hit.
  void make_open(std::uint64_t zone, ZoneState state);
  /// Lowest-index Empty data zone, implicitly opened as an append target.
  std::uint64_t allocate_append_zone();
  /// Append mechanics shared by host appends and reclaim copies: open the
  /// zone as needed, land at the write pointer, install the mapping.
  flash::Ppn do_append(std::uint64_t zone, flash::Lpn lpn);
  /// Append for the device's own machinery (reclaim copy-forward).
  flash::Ppn append_internal(flash::Lpn lpn);
  void install_mapping(flash::Lpn lpn, flash::Ppn ppn);
  void invalidate(flash::Lpn lpn);
  void trim_one(flash::Lpn lpn);
  /// Charge the journal pages a log update programmed, then fold the
  /// checkpoint if it is due.
  void persist(std::uint64_t journal_pages);
  void reset_zone_internal(std::uint64_t zone);
  /// Erase the blocks a reset or retired zone's write pointer reached.
  void erase_zone_media(std::uint64_t zone);
  /// Shared zone walk: reclaim and retirement copy a victim's live extents
  /// forward the same way, walking the valid-page bitmap instead of probing
  /// p2l_ across the whole write-pointer prefix.
  void copy_forward_live(std::uint64_t zone);

  ZnsConfig config_;
  std::uint32_t zone_pages_ = 0;
  std::uint64_t logical_pages_ = 0;
  bool mounted_ = true;

  // ---- volatile state (lost on power_loss) ----------------------------
  // Flat maps, flash::kNoPage = unmapped (see the note on kNoPage).
  flash::PageMap<flash::Ppn> l2p_;
  flash::PageMap<flash::Lpn> p2l_;
  std::vector<Zone> zones_;
  std::uint64_t active_zone_;   // host append target
  std::uint64_t reclaim_zone_;  // copy-forward append target
  std::uint32_t free_count_ = 0;   // Empty data zones
  std::uint32_t open_count_ = 0;   // implicit + explicit opens
  std::uint64_t open_stamp_ = 0;   // LRU clock for implicit shedding
  std::uint64_t mapped_count_ = 0;
  // Hot-path bit indexes (volatile; rebuilt on recover): Empty data zones
  // (allocation), Full zones (reclaim victim selection) and valid pages
  // (copy-forward walks), mirroring the FTL's free/full/valid bitsets.
  std::vector<std::uint64_t> free_bits_;
  std::vector<std::uint64_t> full_bits_;
  std::vector<std::uint64_t> valid_bits_;

  // ---- durable state (survives power_loss) ----------------------------
  flash::MetadataLog log_;  // OOB stamps, zone headers, journal, checkpoint
  std::vector<char> retired_;  // durable offline-zone table
  std::uint32_t retired_count_ = 0;

  ZnsStats stats_;
};

}  // namespace isp::zns
