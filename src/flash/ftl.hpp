// Page-mapped flash translation layer with greedy garbage collection and
// power-loss crash consistency.
//
// The FTL is the "storage management workload" the paper names as a source
// of CSE/bandwidth contention (§II-B(3)).  It maintains the logical→physical
// page map, performs out-of-place writes, and reclaims space with a greedy
// min-valid-cost GC policy.  counters() tells how much internal bandwidth
// background storage management (GC plus metadata persistence) consumes
// beside host writes; E10 converts that share into an availability schedule
// for the flash array.
//
// Durability (journal mode, docs/fault-model.md "Power loss and recovery"):
// every mapping update is journaled and data-page programs carry (lpn, seq)
// out of band; flash/metadata_log.hpp holds that durable state and the
// checkpoint + journal + OOB replay a remount runs.  The only updates a
// crash can lose are trims buffered since the last journal page program.
//
// Data plane: the map, the block accounting, greedy GC and retirement are
// the shared erase-unit pool (flash/unit_pool.hpp) with a unit of one
// block; the FTL adds its config, its stats names and the compaction of
// stray partial blocks at remount.
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
  /// plus the unwritten tails of the open append blocks
  /// (UnitPool::free_pages), exported as a gauge.
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
    return pool_.logical_pages();
  }

  /// Physical location of a logical page, if it has ever been written.
  [[nodiscard]] std::optional<Ppn> translate(Lpn lpn) const override {
    return pool_.translate(lpn);
  }

  /// Extent ops (flash/backend.hpp): out-of-place writes with greedy GC at
  /// the low watermark, trims, and map reads.
  void write_span(Lpn first, std::uint64_t count) override {
    pool_.write_span(first, count);
  }
  void trim_span(Lpn first, std::uint64_t count) override {
    pool_.trim_span(first, count);
  }
  std::uint64_t read_span(Lpn first, std::uint64_t count,
                          std::vector<Ppn>* out) const override {
    return pool_.read_span(first, count, out);
  }

  /// Decommission a block (grown-bad media): relocate its valid pages, add
  /// it to the durable bad-block table, and exclude it from allocation
  /// forever.  The escalation behind the FlashProgram site's block_retire
  /// penalty.  No-op if already retired.
  void retire_block(std::uint64_t block);

  [[nodiscard]] FtlStats stats() const;
  [[nodiscard]] std::uint32_t free_blocks() const {
    return pool_.free_units();
  }
  [[nodiscard]] std::uint32_t retired_blocks() const {
    return pool_.retired_units();
  }
  [[nodiscard]] std::uint64_t total_blocks() const { return pool_.units(); }
  /// The block pool, for tests that pin its state.
  [[nodiscard]] const UnitPool& pool() const { return pool_; }

  [[nodiscard]] bool journaling() const override {
    return pool_.journaling();
  }
  [[nodiscard]] bool mounted() const override { return pool_.mounted(); }
  /// Mapping updates buffered in the volatile journal tail right now.
  [[nodiscard]] std::uint64_t journal_tail_updates() const {
    return pool_.log().buffered();
  }

  /// Power cut: all volatile state (map, reverse map, block bookkeeping,
  /// buffered journal tail) is gone.  Requires journal mode.  Every call
  /// except recover(), stats() and the config accessors is invalid until
  /// the remount completes.
  FtlCrash power_loss() override { return pool_.power_loss(); }

  /// Remount after power_loss(): replay the durable metadata and rebuild
  /// the maps and block state (UnitPool::remount), re-open the partially
  /// written blocks, and re-verify every invariant.
  FtlRecovery recover() override;

  [[nodiscard]] double write_amplification() const override {
    return counters().write_amplification();
  }

  [[nodiscard]] StorageCounters counters() const override {
    return pool_.counters();
  }

  void record_metrics(obs::MetricsRegistry& registry) const override {
    stats().record_metrics(registry);
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
  /// A block is full exactly when it is healthy and completely written
  /// (the FTL never closes a block early, unlike a ZNS finish).
  void check_blocks() const;

  UnitPool::Hooks hooks_;  // the FTL adds no steps to the pool's
  UnitPool pool_;
};

}  // namespace isp::flash
