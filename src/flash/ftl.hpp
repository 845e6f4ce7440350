// Page-mapped flash translation layer with greedy garbage collection and
// power-loss crash consistency.
//
// The FTL is the "storage management workload" the paper names as a source
// of CSE/bandwidth contention (§II-B(3)).  It maintains the logical→physical
// page map, performs out-of-place writes, and reclaims space with a greedy
// min-valid-cost GC policy.  gc_pressure() summarises how much internal
// bandwidth background storage management (GC plus metadata persistence) is
// consuming, which the CSD model converts into an availability schedule for
// the flash array.
//
// Durability (journal mode, docs/fault-model.md "Power loss and recovery"):
// every mapping update is journaled and data-page programs carry (lpn, seq)
// out of band; flash/metadata_log.hpp holds that durable state and the
// checkpoint + journal + OOB replay a remount runs.  The only updates a
// crash can lose are trims buffered since the last journal page program.
//
// Data plane (PR 10): the hot loops are extent-oriented.  write_span/
// trim_span/read_span process contiguous LPN runs with per-run bookkeeping,
// allocation and GC victim selection walk word-packed bitsets (free blocks,
// full blocks, valid pages) via ctz/popcount, and remount consults durable
// per-block summaries (max OOB sequence + programmed-prefix length) instead
// of scanning every page.  All of it is bit-for-bit equivalent to the scalar
// page-by-page paths — the win is algorithmic, not semantic.
//
// Invariants (enforced and property-tested):
//   * a logical page maps to at most one valid physical page;
//   * no two logical pages share a physical page;
//   * per-block valid counts equal the number of valid pages in the block;
//   * free + in-use + retired block counts always sum to the block total.
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

namespace isp::flash {

/// Pre-seam name for the shared journal knobs (flash/backend.hpp).
using FtlJournalConfig = JournalConfig;

struct FtlConfig {
  NandGeometry geometry;
  /// Fraction of physical blocks hidden from the logical space.
  double overprovision = 0.125;
  /// Start GC when free blocks drop to this many.
  std::uint32_t gc_low_watermark = 2;
  /// Stop GC when free blocks recover to this many.
  std::uint32_t gc_high_watermark = 4;
  FtlJournalConfig journal;
};

struct FtlStats {
  std::uint64_t host_writes = 0;   // pages written by the host
  std::uint64_t gc_writes = 0;     // pages relocated by GC
  std::uint64_t meta_writes = 0;   // journal + checkpoint pages programmed
  std::uint64_t erases = 0;        // blocks erased
  std::uint64_t gc_invocations = 0;
  std::uint64_t checkpoint_folds = 0;
  std::uint64_t blocks_retired = 0;
  std::uint64_t recoveries = 0;    // successful remounts after power loss
  /// Data pages writable without further GC right now: pages in free blocks
  /// plus the unwritten tails of the open append blocks.  Maintained
  /// incrementally by the Ftl so record_metrics can export it as a gauge.
  std::uint64_t free_pages = 0;

  /// Metadata persistence is real write traffic: it amplifies exactly like
  /// GC relocation does.
  [[nodiscard]] double write_amplification() const {
    if (host_writes == 0) return 1.0;
    return static_cast<double>(host_writes + gc_writes + meta_writes) /
           static_cast<double>(host_writes);
  }

  /// Fold these stats into a metrics registry under "ftl.*" (GC and journal
  /// traffic as counters, write amplification as a per-run histogram
  /// sample).  Pure bookkeeping: charges no virtual time.
  void record_metrics(obs::MetricsRegistry& registry) const;
};

/// Pre-seam names for the shared crash/recovery ladder (flash/backend.hpp).
using FtlCrash = StorageCrash;
using FtlRecovery = StorageRecovery;

class Ftl final : public StorageBackend {
 public:
  explicit Ftl(FtlConfig config);

  /// Every check the constructor makes on `config` (the same Error
  /// messages), without allocating the maps: returns the logical page count
  /// a feasible config exposes.
  [[nodiscard]] static std::uint64_t checked_logical_pages(
      const FtlConfig& config);

  [[nodiscard]] BackendKind kind() const override { return BackendKind::Ftl; }

  /// Number of logical pages exposed.
  [[nodiscard]] std::uint64_t logical_pages() const override {
    return logical_pages_;
  }

  /// Write one logical page (out of place). May trigger GC.
  void write(Lpn lpn) override;

  /// Physical location of a logical page, if it has ever been written.
  [[nodiscard]] std::optional<Ppn> translate(Lpn lpn) const override;

  /// Trim: drop the mapping, invalidating the physical page.
  void trim(Lpn lpn) override;

  /// Batched extent ops (flash/backend.hpp contract: bit-for-bit the scalar
  /// loop's state, stats and journal, reached via run-at-a-time bookkeeping
  /// instead of per-page re-checks).
  void write_span(Lpn first, std::uint64_t count) override;
  void trim_span(Lpn first, std::uint64_t count) override;
  std::uint64_t read_span(Lpn first, std::uint64_t count,
                          std::vector<Ppn>* out) const override;

  /// Decommission a block (grown-bad media): relocate its valid pages, add
  /// it to the durable bad-block table, and exclude it from allocation
  /// forever.  The escalation behind the FlashProgram site's block_retire
  /// penalty.  No-op if already retired.
  void retire_block(std::uint64_t block);

  [[nodiscard]] const FtlStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t free_blocks() const { return free_count_; }
  [[nodiscard]] std::uint32_t retired_blocks() const { return retired_count_; }
  [[nodiscard]] std::uint64_t total_blocks() const { return blocks_.size(); }

  [[nodiscard]] bool journaling() const override {
    return config_.journal.enabled;
  }
  [[nodiscard]] bool mounted() const override { return mounted_; }
  /// Mapping updates buffered in the volatile journal tail right now.
  [[nodiscard]] std::uint64_t journal_tail_updates() const {
    return log_.buffered();
  }

  /// Power cut: all volatile state (map, reverse map, block bookkeeping,
  /// buffered journal tail) is gone.  Requires journal mode.  Every call
  /// except recover(), stats() and the config accessors is invalid until
  /// the remount completes.
  FtlCrash power_loss() override;

  /// Remount after power_loss(): replay the durable metadata (MetadataLog::
  /// replay), rebuild the reverse map and per-block valid counts, re-open
  /// the partially written blocks, and re-verify every invariant.
  FtlRecovery recover() override;

  /// Fraction of array bandwidth background storage management has consumed
  /// over the run so far: relocated + metadata traffic relative to all
  /// write traffic.  Used to derate the internal bandwidth visible to ISP
  /// tasks.
  [[nodiscard]] double gc_pressure() const override;

  [[nodiscard]] double write_amplification() const override {
    return stats_.write_amplification();
  }

  [[nodiscard]] StorageCounters counters() const override {
    return StorageCounters{.host_pages = stats_.host_writes,
                           .reclaim_pages = stats_.gc_writes,
                           .meta_pages = stats_.meta_writes,
                           .resets = stats_.erases,
                           .reclaim_events = stats_.gc_invocations,
                           .recoveries = stats_.recoveries};
  }

  void record_metrics(obs::MetricsRegistry& registry) const override {
    stats_.record_metrics(registry);
  }

  /// Validate every invariant; throws isp::Error on violation.  Cheap enough
  /// to call from property tests after every operation.
  void check_invariants() const override;

  /// The remount-time subset of check_invariants(): O(blocks) bitmap
  /// popcount cross-checks over the whole device, deep per-page checks only
  /// on the blocks dirtied since the last checkpoint fold.  recover() runs
  /// this on every remount; public so tests can check it alongside the
  /// full sweep.
  void check_invariants_incremental() const;

 private:
  struct Block {
    std::uint32_t valid = 0;
    std::uint32_t next_free_page = 0;  // append pointer within the block
    bool is_free = true;
  };

  [[nodiscard]] Ppn block_first_page(std::uint64_t block) const;
  [[nodiscard]] std::uint64_t page_block(Ppn ppn) const;
  std::uint64_t allocate_free_block();
  Ppn append_to_active(bool for_gc);
  void garbage_collect();
  void install_mapping(Lpn lpn, Ppn ppn);
  /// Charge the journal pages a log update programmed, then fold the
  /// checkpoint if it is due.
  void persist(std::uint64_t journal_pages);
  void trim_one(Lpn lpn);
  /// Shared block walks: GC victims, retirement and remount compaction all
  /// relocate a block's valid pages (walking the valid-page bitmap).
  void relocate_block(std::uint64_t block);

  FtlConfig config_;
  std::uint64_t logical_pages_;
  bool mounted_ = true;

  // ---- volatile state (lost on power_loss) ----------------------------
  // Flat sentinel-coded maps (kNoPage = unmapped): see the note on kNoPage.
  PageMap<Ppn> l2p_;
  PageMap<Lpn> p2l_;  // valid reverse map (kNoPage = invalid/free)
  std::vector<Block> blocks_;
  std::uint64_t active_block_;     // current host append block
  std::uint64_t gc_active_block_;  // current GC relocation block
  std::uint32_t free_count_;
  std::uint64_t mapped_count_ = 0;
  // Hot-path bit indexes (volatile; rebuilt on recover).  Allocation walks
  // free_bits_ with ctz for the lowest free block, GC victim selection walks
  // full_bits_ (full, non-free, non-retired blocks), and relocation walks
  // valid_bits_ (one bit per ppn with a reverse mapping) instead of probing
  // p2l_ page by page.
  std::vector<std::uint64_t> free_bits_;
  std::vector<std::uint64_t> full_bits_;
  std::vector<std::uint64_t> valid_bits_;

  // ---- durable state (survives power_loss) ----------------------------
  MetadataLog log_;  // OOB stamps, block headers, journal, checkpoint
  std::vector<char> retired_;  // durable bad-block table
  std::uint32_t retired_count_ = 0;

  FtlStats stats_;
};

}  // namespace isp::flash
