// The erase-unit pool both storage backends own: one map layer and one copy
// of the unit economics.
//
// A unit is a backend's erase/append granule: an FTL block or a ZNS zone.
// ZCSD (Lukken et al.) describes the FTL's device-side GC and ZNS's
// host-coordinated reclaim as the same erase-unit economics with a
// different party choosing placement; this type is those economics, written
// once.  It owns:
//   * the logical→physical map, the reverse map, the valid-page bitmap and
//     each unit's valid count and append pointer (its programmed prefix);
//   * the free and full unit bitsets and the durable retired table;
//   * the two append points: host writes and reclaim copies;
//   * the greedy victim walk (the first strict minimum of valid pages over
//     the full units, skipping the append points), the stand-down when that
//     victim is fully valid, and the low/high watermark loop around it;
//   * the construction and retirement feasibility checks;
//   * the MetadataLog (flash/metadata_log.hpp) and the page counters both
//     backends report.
//
// Every page program, reclaim copy and trim goes through the log in runs,
// so the per-page work is a few stores and the per-update bookkeeping (the
// hooks, the unit header, the journal record append, the fold check) is
// paid once per run:
//   * a host write appends runs bounded by the host unit's room and the
//     log's run_room(); at or below the low watermark it goes one page at
//     a time (a one-page run), because the watermark loop follows each;
//   * relocation gathers the victim's valid lpns in ascending page order
//     and drops its reverse map, valid bits and count in bulk, then copies
//     them in runs bounded by the reclaim unit's room and run_room();
//   * a trim collects the extent's mapped lpns in runs bounded by the open
//     journal page's free records, record_room() (trims are journaled on
//     both backends, so ZNS's run_room(), which counts unjournaled programs
//     toward the fold, is not their bound).
// Exactness: sequence numbers follow the same page order as one update at
// a time, and because a run fits its room, the journal page program it
// owes, and the checkpoint fold that page or the fold cadence may bring,
// falls on its last update, where the one-at-a-time path would meet it.
// A fold snapshots the map only at a run's end, where it equals the
// one-at-a-time map, so meta pages, folds, crash tails and remounts are
// unchanged (StorageGolden.* pins them).
//
// What differs comes in through Hooks: ZNS keeps its zone state machine and
// open-zone LRU behind open()/filled()/erased(); the FTL needs none of them.
// Compaction of stray partial blocks at remount (FTL) and finishing stray
// partial zones (ZNS) stay in the backends' recover().
//
// Invariants (check_invariants*):
//   * a logical page maps to at most one valid physical page, and vice versa;
//   * per-unit valid counts equal the number of valid pages in the unit;
//   * valid pages lie in the unit's programmed prefix, which is the durable
//     header's programmed count;
//   * free units hold nothing, retired units hold nothing and are never
//     free, full units are neither;
//   * free + in-use + retired units always sum to the unit total.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/divide.hpp"
#include "flash/backend.hpp"
#include "flash/metadata_log.hpp"
#include "flash/nand.hpp"
#include "flash/page_map.hpp"

namespace isp::flash {

/// The words a backend's errors use.
struct PoolNames {
  const char* backend = "storage";  // "FTL" / "ZNS"
  const char* unit = "unit";        // "block" / "zone"
  const char* units = "units";      // "blocks" / "zones"
  const char* reclaim = "reclaim";  // "GC" / "reclaim"
  const char* append = "append";    // "active" / "append"
  const char* pool = "total";       // the unit total: "total" / "data zones"
  const char* starved = "out of free units";  // no free unit left
};

struct PoolConfig {
  NandGeometry geometry;
  JournalConfig journal;
  /// Consecutive physical blocks per unit.
  std::uint32_t unit_blocks = 1;
  /// Leading units outside the pool (ZNS metadata zones).
  std::uint32_t reserved_units = 0;
  /// Fraction of the pool's capacity hidden from the logical space.
  double overprovision = 0.125;
  /// Reclaim when free units drop to this many ...
  std::uint32_t low_watermark = 2;
  /// ... and stop when they recover to this many.
  std::uint32_t high_watermark = 4;
  /// MetadataLog's journal_programs: the FTL journals every program, ZNS
  /// recovers programs from the append order.
  bool journal_programs = true;
  PoolNames names;
};

/// Counts both backends keep; FtlStats and ZnsStats name them their way.
struct PoolStats {
  std::uint64_t host_pages = 0;     // data pages written for the host
  std::uint64_t reclaim_pages = 0;  // valid pages relocated by reclaim
  std::uint64_t meta_pages = 0;     // journal + checkpoint + table pages
  std::uint64_t erases = 0;         // blocks erased
  std::uint64_t reclaim_invocations = 0;
  std::uint64_t checkpoint_folds = 0;
  std::uint64_t units_retired = 0;
  std::uint64_t recoveries = 0;
};

class UnitPool {
 public:
  /// The backend's steps around the pool's.  The defaults do nothing.
  class Hooks {
   public:
    /// Before appends into `unit`: a freshly allocated unit, a host append
    /// point at the start of a write, or the reclaim point before a copy.
    virtual void open(std::uint64_t /*unit*/) {}
    /// `unit`'s append pointer reached the end of the unit.
    virtual void filled(std::uint64_t /*unit*/) {}
    /// `unit` was erased: back in the free pool, or retired (retired()).
    virtual void erased(std::uint64_t /*unit*/) {}

    virtual ~Hooks() = default;
  };

  /// Every check the constructor makes on `config`, in order (the same
  /// Error messages), without allocating: returns the logical page count.
  [[nodiscard]] static std::uint64_t checked_logical_pages(
      const PoolConfig& config);

  /// An empty pool with no append points yet: the owner calls
  /// reopen_append_points({}) once its hooks are ready.  `hooks` must
  /// outlive the pool.
  UnitPool(const PoolConfig& config, Hooks& hooks);
  UnitPool(const UnitPool&) = delete;
  UnitPool& operator=(const UnitPool&) = delete;

  // ---- The I/O the seam exposes -----------------------------------------
  /// Write `count` pages from `first` in ascending order, out of place at
  /// the host append point; reclaims at the low watermark.
  void write_span(Lpn first, std::uint64_t count);
  void trim_span(Lpn first, std::uint64_t count);
  std::uint64_t read_span(Lpn first, std::uint64_t count,
                          std::vector<Ppn>* out) const;
  [[nodiscard]] std::optional<Ppn> translate(Lpn lpn) const;

  /// One host page appended to `unit` (which must have room) as a one-page
  /// run, then the watermark check: ZNS's zone_append.
  Ppn write_at(std::uint64_t unit, Lpn lpn);

  // ---- Units ------------------------------------------------------------
  /// The watermark loop: reclaim the victim() until free units reach the
  /// high watermark or no victim yields space.  Counts an invocation even
  /// when it stands down.
  void reclaim();
  /// The greedy victim: the first full unit, in ascending order, with
  /// strictly the fewest valid pages, never an append point.  units() when
  /// there is none or it is fully valid (relocating it frees nothing).
  [[nodiscard]] std::uint64_t victim() const;
  /// Relocate `unit`'s valid pages to the reclaim append point, in runs.
  void relocate(std::uint64_t unit);
  /// Erase `unit` (its valid pages relocated) back into the free pool.
  void erase(std::uint64_t unit);
  /// Take `unit` out of service forever: move the append points off it,
  /// relocate its valid pages, erase it, record it in the retired table,
  /// then restore the watermark.  Rejects a retirement that would leave too
  /// few healthy units.  No-op if already retired.
  void retire(std::uint64_t unit);
  /// Remove a free `unit` from the free pool (allocation, ZNS open/finish).
  void take(std::uint64_t unit);
  /// Mark `unit` full: a reclaim candidate that takes no more appends.
  void mark_full(std::uint64_t unit);
  /// After construction or remount: the first two `partial` units become
  /// the host and reclaim append points (opened through the hooks), fresh
  /// free units otherwise.
  void reopen_append_points(const std::vector<std::uint64_t>& partial);

  // ---- Power loss -------------------------------------------------------
  StorageCrash power_loss();
  /// Replay the durable metadata and rebuild the map and unit state; the
  /// partially written units, ascending, go to `partial`.  The owner then
  /// rebuilds its own state, reopen_append_points(), and disposes of the
  /// remaining partials.
  StorageRecovery remount(std::vector<std::uint64_t>& partial);

  // ---- State ------------------------------------------------------------
  void check_mounted() const;
  void check_lpn(Lpn lpn) const;
  [[nodiscard]] bool mounted() const { return mounted_; }
  [[nodiscard]] bool journaling() const { return config_.journal.enabled; }
  [[nodiscard]] std::uint64_t logical_pages() const { return logical_pages_; }
  [[nodiscard]] std::uint64_t units() const { return written_.size(); }
  [[nodiscard]] std::uint32_t unit_pages() const { return unit_pages_; }
  [[nodiscard]] std::uint32_t written(std::uint64_t unit) const {
    return written_[unit];
  }
  [[nodiscard]] std::uint32_t valid(std::uint64_t unit) const {
    return valid_[unit];
  }
  [[nodiscard]] bool is_free(std::uint64_t unit) const;
  [[nodiscard]] bool is_full(std::uint64_t unit) const;
  [[nodiscard]] bool retired(std::uint64_t unit) const {
    return retired_[unit] != 0;
  }
  [[nodiscard]] std::uint32_t free_units() const { return free_count_; }
  [[nodiscard]] std::uint32_t retired_units() const { return retired_count_; }
  [[nodiscard]] std::uint64_t host_point() const { return host_; }
  [[nodiscard]] std::uint64_t reclaim_point() const { return reclaim_; }
  /// Pages writable without reclaim: the unwritten pages of every healthy
  /// unit.
  [[nodiscard]] std::uint64_t free_pages() const { return free_pages_; }
  [[nodiscard]] const PoolStats& stats() const { return stats_; }
  [[nodiscard]] StorageCounters counters() const;
  [[nodiscard]] const MetadataLog& log() const { return log_; }

  /// The O(units) summary checks plus per-page checks on the units dirtied
  /// since the last fold.  Throws isp::Error on drift.
  void check_invariants_incremental() const;
  /// Everything: the incremental checks, then every page and unit header.
  void check_invariants() const;

 private:
  [[nodiscard]] Ppn first_page(std::uint64_t unit) const {
    return unit * unit_pages_;
  }
  [[nodiscard]] std::uint64_t page_unit(Ppn ppn) const {
    return unit_of_page_(ppn);
  }
  void check_span(Lpn first, std::uint64_t count) const;
  /// Lowest free unit, taken and opened.
  std::uint64_t allocate();
  /// Take `count` pages at `unit`'s append pointer (the unit must have
  /// room): their valid bits, the pointer, the unit's valid count, the
  /// free-page count and, if the run fills the unit, its full bit and
  /// filled() hook.  Returns the first page.
  Ppn claim(std::uint64_t unit, std::uint64_t count);
  /// Host pages lpn, lpn + 1, ... appended to `unit`, their old locations
  /// dropped.  The run must fit the unit and the log's run_room().
  void write_run(std::uint64_t unit, Lpn lpn, std::uint64_t count);
  /// Reclaim copies of lpns[0, count) appended to `unit`; their old
  /// locations are already dropped.  Fits like write_run().
  void copy_run(std::uint64_t unit, const Lpn* lpns, std::uint64_t count);
  /// Drop physical page `ppn` from the reverse map, the valid bits and its
  /// unit's valid count.
  void drop(Ppn ppn);
  /// Charge the journal pages a log update programmed, then fold the
  /// checkpoint if it is due.
  void persist(std::uint64_t journal_pages);
  /// Erase `unit`'s programmed blocks and clear its append pointer.
  void wipe(std::uint64_t unit);

  PoolConfig config_;
  Hooks& hooks_;
  std::uint32_t unit_pages_;
  std::uint32_t first_unit_;
  std::uint64_t logical_pages_;
  // page_unit()'s divide-free ppn / unit_pages_ (every ppn fits 32 bits).
  ExactDivider unit_of_page_;
  bool mounted_ = true;

  // ---- volatile state (lost on power_loss) ----------------------------
  PageMap<Ppn> l2p_;  // kNoPage = unmapped; stale while unmounted
  PageMap<Lpn> p2l_;  // kNoPage = invalid or unprogrammed
  std::vector<std::uint32_t> valid_;    // valid pages per unit
  std::vector<std::uint32_t> written_;  // append pointer per unit
  // Word-packed indexes the hot loops walk with ctz/popcount: free units
  // (allocation), full units (victim walk) and valid pages (relocation).
  std::vector<std::uint64_t> free_bits_;
  std::vector<std::uint64_t> full_bits_;
  std::vector<std::uint64_t> valid_bits_;
  std::uint32_t free_count_ = 0;
  std::uint64_t mapped_count_ = 0;
  std::uint64_t free_pages_ = 0;
  std::uint64_t host_ = 0;     // host append point
  std::uint64_t reclaim_ = 0;  // reclaim copy append point
  // Scratch for one run's lpns: a victim's valid pages, a trim run.
  std::vector<Lpn> run_lpns_;

  // ---- durable state (survives power_loss) ----------------------------
  MetadataLog log_;  // OOB stamps, unit headers, journal, checkpoint
  std::vector<char> retired_;  // durable retired-unit table
  std::uint32_t retired_count_ = 0;

  PoolStats stats_;
};

}  // namespace isp::flash
