// Digest-verified engine-run memo cache for the serving hot path (PR 7).
//
// Every dispatched job is a full engine simulation, but the simulation is a
// pure function of a small key: the job class (fixes the program, plan and
// profile), host vs device lane, the contended link share the SystemModel
// is built with, the derived per-job fault seed (only when any fault site
// is actually armed — fault-free jobs share one canonical key), the
// power-loss arming parameters, and the device's availability schedule
// rebased to the dispatch instant.  The fleet's default schedules are
// constant, so rebasing lands on the same function for every start — under
// steady load most dispatches repeat a handful of keys and the cache turns
// O(jobs) engine runs into O(distinct keys).
//
// Correctness over speed: lookups bucket by the key's FNV-1a digest but
// *verify the full key* field by field (including every schedule step)
// before returning a hit, so a digest collision degrades to a miss, never a
// wrong result.  All cache operations happen on the serial decision thread
// in wave submission order, and eviction is FIFO by insertion sequence —
// the cache's behaviour is a deterministic function of the dispatch stream,
// which is why serve() stays byte-identical across `--jobs` values and
// across memo capacities (serve_test pins golden report, metrics, trace and
// JSON digests and checks a two-entry bound against the default).  Each
// entry also carries its metrics fold into the report registry (Memoized),
// so a hit folds without a single metric-name lookup.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/report.hpp"
#include "serve/server.hpp"
#include "sim/availability.hpp"

namespace isp::serve {

/// What one engine simulation reports back to the serving loop (and what a
/// memo hit replays).  Everything here is job-local: no field depends on
/// the dispatch instant or lane index, which is what makes the result
/// reusable across dispatches with equal keys.
struct SimResult {
  Seconds service;
  std::uint32_t migrations = 0;
  std::uint32_t power_losses = 0;
  std::uint64_t faults = 0;
  std::uint64_t faults_exhausted = 0;  // breaker severity input
  // Observability detail (ObsOptions::enabled only).  Fault-event times are
  // job-local here; the serial fold shifts them to fleet time.
  Seconds migration_overhead;
  Seconds recovery_overhead;
  std::uint32_t lines_csd = 0;
  std::uint32_t lines_host = 0;
  std::vector<FaultEvent> fault_events;
  /// Storage-backend activity the run generated (driven only when the job
  /// class persists its outputs).  Per-run deltas, so a memo hit replays the
  /// same backend work a fresh run would have reported.
  runtime::StorageActivity storage;
  /// Per-job engine/monitor/fault/FTL metrics, merged into the report's
  /// registry in submission order (merge is associative, so the fold equals
  /// a serial run regardless of worker count).  Never changes once the run
  /// returns: a memo entry's MetricsFold reads it in place.
  obs::MetricsRegistry metrics;
};

/// A memoized engine run: the result every hit replays, and the fold of its
/// metrics into the serve() call's report registry.  fold_completed()
/// resolves the fold on the entry's first completed hit and applies it on
/// every later one, so a hit costs no metric-name lookups; the entry owns
/// the fold, so an eviction drops it together with the result it reads.
struct Memoized {
  SimResult result;
  std::optional<obs::MetricsFold> fold;
};

/// The complete set of inputs that determine a dispatch's engine simulation
/// bit for bit.  Two dispatches with equal keys run byte-identical
/// simulations; anything that could differ (fault seed, armed power loss,
/// link share, availability) is part of the key.
struct SimKey {
  std::uint32_t job_class = 0;
  bool on_host = false;
  /// Storage-backend kind of the dispatch lane: 0 for host lanes, else
  /// 1 + flash::BackendKind.  Two devices that differ only in backend run
  /// different simulations (reclaim model, metadata traffic), so the kind
  /// must split the key — a shared entry would silently replay FTL service
  /// times on a ZNS lane (regression-tested in serve_test).
  std::uint32_t backend = 0;
  /// Bit pattern of the contended link share the SystemModel scales its
  /// link bandwidth by (1.0 for host lanes).
  std::uint64_t link_share_bits = 0;
  /// True when any fault site is armed for this job (a FaultConfig rate
  /// > 0, or this job is the armed power-loss job).  When false the
  /// injector never fires and the per-job seed is irrelevant — all
  /// fault-free jobs of a class share one canonical key (fault_seed 0).
  bool faulted = false;
  std::uint64_t fault_seed = 0;
  bool power_loss_armed = false;
  std::uint64_t power_loss_after = 0;
  /// The device's availability as the engine will see it: already rebased
  /// to the dispatch instant (default-constructed for host lanes).
  sim::AvailabilitySchedule schedule;

  /// Field by field; schedule equality ignores its query cursor.
  [[nodiscard]] bool operator==(const SimKey& other) const = default;
  /// FNV-1a over every field — the bucket key.  Hits are still verified
  /// against the full key.
  [[nodiscard]] std::uint64_t digest() const;
};

/// Capacity-bounded memo cache: digest-bucketed, exact-verified, FIFO
/// eviction by insertion order.  Single-threaded by design — the serving
/// loop touches it only from the serial decision/fold phases.
class SimMemoCache {
 public:
  /// `capacity` bounds the number of live entries (>= 1).
  explicit SimMemoCache(std::size_t capacity);

  /// The cached entry for `key`, or nullptr.  Entries live in a list, so
  /// the pointer stays valid until an insert() evicts its entry.  serve()
  /// relies on that: a wave's hits are folded by pointer, and the wave's
  /// own inserts are deferred to the end of fold_wave().
  [[nodiscard]] Memoized* find(const SimKey& key);

  /// Memoize `value` under `key`, evicting the oldest entry first when at
  /// capacity.  `key` must not already be present.  Taken by value, so a
  /// fresh result passed as an rvalue moves in instead of being copied.
  void insert(const SimKey& key, SimResult value);

  [[nodiscard]] std::size_t size() const { return fifo_.size(); }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    SimKey key;
    Memoized value;
  };

  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
  /// Live entries in insertion order — the FIFO eviction queue.
  std::list<Entry> fifo_;
  /// digest -> entries with that digest (usually exactly one; a genuine
  /// FNV collision just means a longer verify chain).
  std::unordered_multimap<std::uint64_t, std::list<Entry>::iterator> index_;
};

/// One wave's distinct memo misses in first-seen order.  Lookups bucket by
/// the caller's digest (SimKey::digest() when serving) and verify the full
/// key, so two keys that share a digest stay two misses.
class WaveMisses {
 public:
  struct Miss {
    SimKey key;
    std::size_t first;  // wave index that owns the fresh engine run
  };

  /// The index of the earlier miss whose key equals `key`; otherwise record
  /// `key` as a new miss owned by wave index `first` and return nullopt.
  std::optional<std::size_t> dedupe(SimKey key, std::uint64_t digest,
                                    std::size_t first) {
    auto [it, end] = index_.equal_range(digest);
    for (; it != end; ++it) {
      if (misses_[it->second].key == key) return it->second;
    }
    index_.emplace(digest, misses_.size());
    misses_.push_back(Miss{std::move(key), first});
    return std::nullopt;
  }
  [[nodiscard]] const std::vector<Miss>& misses() const { return misses_; }

 private:
  std::vector<Miss> misses_;
  std::unordered_multimap<std::uint64_t, std::size_t> index_;  // digest→miss
};

}  // namespace isp::serve
