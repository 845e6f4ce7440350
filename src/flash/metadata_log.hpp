// The durable-metadata ladder both storage backends share.
//
// A unit is a backend's erase/append granule: an FTL block or a ZNS zone.
// MetadataLog owns everything of a backend's mapping state that survives a
// power cut:
//   * the OOB stamp (lpn, seq) of every programmed data page and the
//     per-unit headers (highest stamped sequence, programmed-prefix length)
//     remount reads instead of every page;
//   * the global update sequence;
//   * the journal: records buffered in the open journal page, and the
//     records on programmed journal pages;
//   * the checkpoint (a snapshot of the whole map) and the fold accounting;
//   * the units touched since the last fold, the scope of incremental
//     remount verification;
//   * replay(), recovery steps 1-4 for both backends, step 4 (the media
//     confirm) fused with the caller's rebuild of its volatile state.
//
// The backends differ only in what they journal.  The FTL journals every
// mapping update.  On ZNS the append order is the mapping, so data-page
// programs are not journaled (the OOB stamp alone recovers them) and only
// count toward the fold cadence; trims are journaled on both.  That one
// difference sets the scan horizon: every update with a sequence at or
// below it is in the checkpoint or on a programmed journal page.  On the
// FTL that is the last programmed record, on ZNS the checkpoint.  Pages a
// remount rescues from OOB are in neither, so a remount that rescued any
// holds its horizon until the next fold covers them.
//
// The log is untimed bookkeeping like the backends: calls that program
// metadata pages return the page and erase counts for the caller to charge.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "flash/backend.hpp"
#include "flash/nand.hpp"
#include "flash/page_map.hpp"

namespace isp::flash {

/// "No mapping" sentinel for the flat map/checkpoint arrays.  The maps are
/// the data plane's hottest stores; a flat word with an impossible page
/// number is half the width of std::optional and keeps the fill loops to
/// plain 8-byte traffic.  No device geometry reaches 2^64 - 1 pages.  A
/// PageMap stores it as all-zero bytes (flash/page_map.hpp).
inline constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

/// OOB area of one physical page: the logical page it holds and the
/// sequence number of its program.  An unprogrammed page reads
/// {kNoPage, 0}.
struct Oob {
  Lpn lpn = kNoPage;
  std::uint64_t seq = 0;
};

/// An OOB stamp is stored with its lpn bit-inverted and its sequence as is,
/// so an unprogrammed page is all-zero bytes.
template <>
struct PageCodec<Oob> {
  static constexpr Oob encode(Oob v) { return Oob{~v.lpn, v.seq}; }
  static constexpr Oob decode(Oob stored) {
    return Oob{~stored.lpn, stored.seq};
  }
};

/// Metadata pages one fold programmed and metadata blocks it recycled.
struct MetaIo {
  std::uint64_t pages = 0;
  std::uint64_t erases = 0;
};

class MetadataLog {
 public:
  /// The journal-knob checks both backends' constructors make.
  static void check_config(const JournalConfig& config,
                           const NandGeometry& geometry);

  /// `journal_programs`: whether data-page programs are journaled (FTL) or
  /// recovered from the append order alone (ZNS).
  MetadataLog(const JournalConfig& config, const NandGeometry& geometry,
              std::uint64_t logical_pages, std::uint64_t units,
              std::uint32_t unit_pages, bool journal_programs);

  // ---- Updates ----------------------------------------------------------
  // program_run() and trim_run() return the journal pages they programmed
  // (0 or 1).  A backend calls them after its volatile map reflects the
  // run, then folds when fold_due().  A run must fit its room (run_room(),
  // record_room()), so the journal page it fills, and the fold that page
  // may bring, come due exactly at its last update.

  /// `count` data-page programs at `unit`'s append point, pages first,
  /// first + 1, ...: lpn + i at first + i, one sequence number each.
  /// Stamps the OOB area and the unit header.
  std::uint64_t program_run(std::uint64_t unit, Ppn first, Lpn lpn,
                            std::uint64_t count);
  /// The gather form: lpns[i] at first + i.
  std::uint64_t program_run(std::uint64_t unit, Ppn first, const Lpn* lpns,
                            std::uint64_t count);
  /// Trims of lpns[0, count), one sequence number and one record each
  /// (trims are journaled on both backends).  The run must fit in
  /// record_room().
  std::uint64_t trim_run(const Lpn* lpns, std::uint64_t count);
  /// Erase every programmed page of `unit` and clear its header.
  void erase(std::uint64_t unit);

  [[nodiscard]] bool fold_due() const;
  /// Checkpoint `map` (kNoPage = unmapped; `mapped` entries are not) and
  /// recycle the old checkpoint and journal pages.
  MetaIo fold(const PageMap<Ppn>& map, std::uint64_t mapped);

  /// Records left in the open journal page: the longest trim_run() that
  /// fits.  Unbounded with the journal off.
  [[nodiscard]] std::uint64_t record_room() const {
    if (!config_.enabled) return ~std::uint64_t{0};
    return entries_per_page_ - buffer_.size();
  }
  /// The longest program_run() that fits: record_room() when programs are
  /// journaled, else the programs left before the fold cadence is due.
  /// Unbounded with the journal off.
  [[nodiscard]] std::uint64_t run_room() const {
    if (!config_.enabled || journal_programs_) return record_room();
    return fold_entries() - programs_since_fold_;
  }
  /// Records buffered in the open journal page.
  [[nodiscard]] std::uint64_t buffered() const { return buffer_.size(); }

  // ---- Power loss -------------------------------------------------------

  /// Drop the buffered journal tail (the only metadata a cut destroys).
  StorageCrash lose_tail();

  /// Recovery steps 1-4 into `map` (logical_pages entries):
  ///   1. the checkpoint, each entry stamped with the fold sequence;
  ///   2. the durable journal in order; a trim stays as a (kNoPage, seq)
  ///      entry, so only a newer OOB stamp can map the page again;
  ///   3. the OOB scan of every unit whose header has a stamp above the
  ///      scan horizon: a stamp newer than the lpn's entry wins;
  ///   4. the media confirm, one pass over the lpns: a mapped page whose
  ///      OOB no longer names the lpn was erased, so the entry is dropped;
  ///      every other mapping is handed to `install(lpn, ppn)`, in
  ///      ascending lpn order, so the caller rebuilds its reverse state in
  ///      the same pass.
  /// `map`'s prior contents are irrelevant: step 1 overwrites all of it.
  /// Fills every StorageRecovery field but mappings_recovered.
  template <typename Install>
  StorageRecovery replay(PageMap<Ppn>& map, Install&& install);

  // ---- Durable state, for the backends' rebuild and invariant checks ----

  /// Programmed-prefix length of `unit`: its append point after a remount.
  [[nodiscard]] std::uint32_t programmed(std::uint64_t unit) const {
    return programmed_[unit];
  }
  /// The OOB stamp of `ppn`: {kNoPage, 0} when unprogrammed or with the
  /// journal off.
  [[nodiscard]] Oob stamp(Ppn ppn) const {
    return media_.empty() ? Oob{} : media_[ppn];
  }
  /// Units programmed or erased since the last fold.
  [[nodiscard]] const std::vector<std::uint64_t>& dirty() const {
    return dirty_;
  }
  /// The unit header matches its pages: stamps form exactly the programmed
  /// prefix and the highest of them is the header's max sequence.  Throws
  /// isp::Error on drift.  No-op with the journal off (no stamps).
  void check_unit(std::uint64_t unit) const;

 private:
  /// One journal record as programmed (JournalConfig::entry_bytes = 16):
  /// lpn, ppn (kTrimRecord for a trim) and sequence.
  struct Record {
    std::uint32_t lpn = 0;
    std::uint32_t ppn = 0;
    std::uint64_t seq = 0;
  };
  static constexpr std::uint32_t kTrimRecord = ~std::uint32_t{0};

  [[nodiscard]] std::uint64_t fold_entries() const {
    return static_cast<std::uint64_t>(config_.checkpoint_interval_pages) *
           entries_per_page_;
  }
  /// The stamp-and-record loop of both program_run() forms: page i of the
  /// run holds lpn_at(i).
  template <typename LpnAt>
  std::uint64_t stamp_run(std::uint64_t unit, Ppn first, std::uint64_t count,
                          LpnAt lpn_at);
  /// Recovery steps 1-3 of replay().
  StorageRecovery replay_records(PageMap<Ppn>& map);
  /// `count` fresh records at the end of the open journal page.
  Record* reserve_records(std::uint64_t count);
  std::uint64_t program_page_if_full();

  JournalConfig config_;
  std::uint64_t page_bytes_;
  std::uint32_t pages_per_block_;
  std::uint32_t unit_pages_;
  std::uint32_t entries_per_page_ = 1;
  bool journal_programs_;

  PageMap<Oob> media_;  // empty with the journal off
  std::vector<std::uint64_t> max_seq_;
  std::vector<std::uint32_t> programmed_;
  std::vector<std::uint64_t> dirty_;
  std::uint64_t seq_ = 0;

  std::vector<Record> buffer_;   // records in the open journal page
  std::vector<Record> journal_;  // records on programmed journal pages
  PageMap<Ppn> checkpoint_;      // kNoPage = unmapped at fold time
  std::uint64_t checkpoint_seq_ = 0;
  std::uint64_t checkpoint_pages_ = 0;
  std::uint32_t journal_pages_since_fold_ = 0;
  std::uint64_t programs_since_fold_ = 0;  // unjournaled programs
  std::uint64_t meta_pages_live_ = 0;  // journal + checkpoint, not recycled
  // Every update at or below this sequence is in the checkpoint or on a
  // programmed journal page; held_horizon_ caps it after a rescuing
  // remount until the next fold.
  std::uint64_t durable_seq_ = 0;
  std::uint64_t held_horizon_ = ~std::uint64_t{0};

  // Remount scratch: the sequence of each map entry.  A member so repeated
  // power cycles reuse the allocation.
  std::vector<std::uint64_t> replay_seq_;
};

template <typename Install>
StorageRecovery MetadataLog::replay(PageMap<Ppn>& map, Install&& install) {
  StorageRecovery rec = replay_records(map);
  // 4. Media confirm: a mapped page erased since its record (a relocation
  //    or reset whose record sat in the lost tail) is stale; the scan
  //    already supplied any newer location.
  for (Lpn lpn = 0; lpn < map.size(); ++lpn) {
    const Ppn ppn = map[lpn];
    if (ppn == kNoPage) continue;
    if (media_[ppn].lpn != lpn) {
      map.set(lpn, kNoPage);
      ++rec.stale_mappings_dropped;
    } else {
      install(lpn, ppn);
    }
  }
  return rec;
}

}  // namespace isp::flash
