// The pluggable storage-backend seam.
//
// The paper's Eq.1 economics price device-side contention from "storage
// management workloads" (§II-B(3)); until now the only model of that
// contention was the page-mapped FTL in flash/ftl.*.  ZCSD (Lukken et al.)
// shows that computational storage over Zoned Namespaces changes exactly
// this term: writes become append-only within zones, the device runs no
// background GC of its own, and reclaim is an explicit host-coordinated
// copy-forward + zone_reset.  StorageBackend is the interface both models
// implement so every layer above — the CSD device, the execution engine,
// the crash-recovery sweep and the serving fleet — is written once against
// the seam and a device picks its backend by configuration
// (`CsdConfig::backend`).
//
// Both backends own one flash::UnitPool (flash/unit_pool.hpp): the map,
// the erase-unit accounting, victim selection and the watermark loop are
// written once, and each backend adds only its own steps.
//
// The crash/recovery contract is shared, and so is its implementation
// (flash/metadata_log.hpp): both backends journal durable metadata into
// reserved flash, stamp every data-page program with (lpn, seq) in the
// page's out-of-band area, and remount after power_loss() with one replay
// of checkpoint + journal + an OOB scan of every unit holding a stamp no
// durable record covers.  StorageCrash / StorageRecovery are the common
// currency of that ladder (aliased as FtlCrash / FtlRecovery for the
// pre-seam call sites).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"

namespace isp::obs {
class MetricsRegistry;
}

namespace isp::flash {

using Lpn = std::uint64_t;  // logical page number
using Ppn = std::uint64_t;  // physical page number

/// Which storage-management model a device runs.
enum class BackendKind : std::uint8_t {
  Ftl = 0,  // page-mapped FTL, greedy device-side GC
  Zns = 1,  // zoned namespace, append-only zones, host-coordinated reclaim
};

[[nodiscard]] const char* to_string(BackendKind kind);

/// Durable-metadata knobs, shared by both backends.  Disabled by default so
/// a bare backend behaves (and costs) exactly as before; CsdDevice enables
/// it for the whole device.
struct JournalConfig {
  bool enabled = false;
  /// One durable update record in the journal (lpn + ppn/mark + sequence).
  std::uint32_t entry_bytes = 16;
  /// One map slot in a checkpoint page.
  std::uint32_t checkpoint_entry_bytes = 8;
  /// Fold the journal into a fresh checkpoint after this many journal pages.
  std::uint32_t checkpoint_interval_pages = 64;
};

/// What a power cut destroys: the buffered journal tail that was never
/// programmed.  Updates recoverable from data-page OOB metadata are still
/// rescued at remount; buffered trims are genuinely lost (the recovered map
/// may resurrect them).
struct StorageCrash {
  std::uint64_t lost_tail_updates = 0;
  std::uint64_t lost_trims = 0;
};

/// Cost and outcome of one remount.  Media reads are reported as counts so
/// the caller can convert with its NandTiming (backends are untimed).
struct StorageRecovery {
  std::uint64_t checkpoint_pages_read = 0;
  std::uint64_t journal_pages_read = 0;
  std::uint64_t journal_entries_replayed = 0;
  /// OOB scan of the units holding stamps no durable record covers: FTL
  /// blocks or ZNS zones.
  std::uint64_t blocks_scanned = 0;
  std::uint64_t pages_scanned = 0;
  std::uint64_t mappings_recovered = 0;    // live map entries after remount
  std::uint64_t tail_updates_rescued = 0;  // recovered from OOB, not journal
  std::uint64_t stale_mappings_dropped = 0;

  [[nodiscard]] std::uint64_t media_reads() const {
    return checkpoint_pages_read + journal_pages_read + pages_scanned;
  }
};

/// Backend-agnostic write/reclaim accounting, in pages.  The engine samples
/// these around the storage traffic it drives to charge reclaim as real
/// device work and to report per-run write amplification; the serving layer
/// folds them into per-lane reclaim pressure for Equation 1.
struct StorageCounters {
  std::uint64_t host_pages = 0;     // host-issued data-page programs
  std::uint64_t reclaim_pages = 0;  // GC relocations / ZNS copy-forward
  std::uint64_t meta_pages = 0;     // journal + checkpoint page programs
  std::uint64_t resets = 0;         // block erases / zone resets
  std::uint64_t reclaim_events = 0; // GC invocations / reclaim passes
  std::uint64_t recoveries = 0;     // successful remounts after power loss

  [[nodiscard]] double write_amplification() const {
    if (host_pages == 0) return 1.0;
    return static_cast<double>(host_pages + reclaim_pages + meta_pages) /
           static_cast<double>(host_pages);
  }
};

/// The storage-management model of one device.  Implementations are untimed
/// bookkeeping machines (the caller charges NandTiming for the traffic they
/// report) and fully deterministic: the same call sequence produces the same
/// state, stats and recovery outcome bit for bit.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  [[nodiscard]] virtual BackendKind kind() const = 0;

  /// Number of logical pages exposed.
  [[nodiscard]] virtual std::uint64_t logical_pages() const = 0;

  // ---- Extent I/O ---------------------------------------------------------
  // The only I/O: contiguous LPN extents [first, first + count), processed
  // in ascending LPN order.  A one-page extent is the unit step, and any
  // extent is exactly the same extent split into one-page extents: state,
  // stats, journal contents and recovery outcome bit for bit.

  /// Write `count` pages starting at `first`, each out of place (FTL) or
  /// appended (ZNS).  May trigger the backend's reclaim (GC or zone
  /// reclaim).
  virtual void write_span(Lpn first, std::uint64_t count) = 0;

  /// Trim `count` pages starting at `first`: drop each mapping, invalidating
  /// its physical page.
  virtual void trim_span(Lpn first, std::uint64_t count) = 0;

  /// Translate the extent: returns how many pages are mapped and, when
  /// `out` is non-null, appends each mapped page's Ppn in LPN order.
  virtual std::uint64_t read_span(Lpn first, std::uint64_t count,
                                  std::vector<Ppn>* out) const = 0;

  /// Physical location of one logical page, if it has been written.
  [[nodiscard]] virtual std::optional<Ppn> translate(Lpn lpn) const = 0;

  [[nodiscard]] virtual bool journaling() const = 0;
  [[nodiscard]] virtual bool mounted() const = 0;

  /// Power cut: all volatile state is gone.  Requires journal mode.  Every
  /// call except recover() and the const accessors is invalid until the
  /// remount completes.
  virtual StorageCrash power_loss() = 0;

  /// Remount after power_loss(): replay checkpoint + journal, OOB-scan the
  /// units holding stamps no durable record covers, rebuild volatile state,
  /// and re-verify every invariant.
  virtual StorageRecovery recover() = 0;

  /// Cumulative write amplification (>= 1.0).
  [[nodiscard]] virtual double write_amplification() const = 0;

  /// Backend-agnostic page accounting snapshot.
  [[nodiscard]] virtual StorageCounters counters() const = 0;

  /// Fold the backend's stats into a metrics registry under its own prefix
  /// ("ftl.*" / "zns.*").  Pure bookkeeping: charges no virtual time.
  virtual void record_metrics(obs::MetricsRegistry& registry) const = 0;

  /// Validate every structural invariant; throws isp::Error on violation.
  virtual void check_invariants() const = 0;
};

}  // namespace isp::flash
