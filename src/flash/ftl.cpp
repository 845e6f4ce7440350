#include "flash/ftl.hpp"

#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace isp::flash {

void FtlStats::record_metrics(obs::MetricsRegistry& registry) const {
  registry.counter("ftl.host_writes").add(host_writes);
  registry.counter("ftl.gc_writes").add(gc_writes);
  registry.counter("ftl.meta_writes").add(meta_writes);
  registry.counter("ftl.erases").add(erases);
  registry.counter("ftl.gc_invocations").add(gc_invocations);
  registry.counter("ftl.checkpoint_folds").add(checkpoint_folds);
  registry.counter("ftl.blocks_retired").add(blocks_retired);
  registry.counter("ftl.recoveries").add(recoveries);
  registry.gauge("ftl.free_pages").set(static_cast<double>(free_pages));
  registry.gauge("ftl.wa").set(write_amplification());
  if (host_writes > 0) {
    registry
        .histogram("ftl.write_amplification",
                   obs::HistogramOptions{.min_value = 1.0,
                                         .growth = 1.05,
                                         .buckets = 96})
        .record(write_amplification());
  }
}

namespace {

/// The FTL's pool: every block is a unit.  Makes the FTL's own config check
/// first.
PoolConfig pool_config(const FtlConfig& config) {
  ISP_CHECK(config.geometry.total_blocks() >= 4,
            "geometry too small for an FTL");
  return PoolConfig{
      .geometry = config.geometry,
      .journal = config.journal,
      .unit_blocks = 1,
      .reserved_units = 0,
      .overprovision = config.overprovision,
      .low_watermark = config.gc_low_watermark,
      .high_watermark = config.gc_high_watermark,
      .journal_programs = true,
      .names = {.backend = "FTL",
                .unit = "block",
                .units = "blocks",
                .reclaim = "GC",
                .append = "active",
                .pool = "total",
                .starved = "FTL out of free blocks (GC starved)"}};
}

}  // namespace

std::uint64_t Ftl::checked_logical_pages(const FtlConfig& config) {
  return UnitPool::checked_logical_pages(pool_config(config));
}

Ftl::Ftl(FtlConfig config) : pool_(pool_config(config), hooks_) {
  pool_.reopen_append_points({});
}

FtlStats Ftl::stats() const {
  const PoolStats& s = pool_.stats();
  return FtlStats{.host_writes = s.host_pages,
                  .gc_writes = s.reclaim_pages,
                  .meta_writes = s.meta_pages,
                  .erases = s.erases,
                  .gc_invocations = s.reclaim_invocations,
                  .checkpoint_folds = s.checkpoint_folds,
                  .blocks_retired = s.units_retired,
                  .recoveries = s.recoveries,
                  .free_pages = pool_.free_pages()};
}

void Ftl::retire_block(std::uint64_t block) {
  pool_.check_mounted();
  ISP_CHECK(block < pool_.units(), "block out of range: " << block);
  pool_.retire(block);
}

FtlRecovery Ftl::recover() {
  std::vector<std::uint64_t> partial;
  const FtlRecovery rec = pool_.remount(partial);
  // Normal operation leaves at most two partially written blocks (the host
  // and GC append points); they are re-opened so they are not stranded (GC
  // only reclaims full blocks).  Any extras are compacted away.
  pool_.reopen_append_points(partial);
  for (std::size_t i = 2; i < partial.size(); ++i) {
    pool_.relocate(partial[i]);
    pool_.erase(partial[i]);
  }
  // The remount contract: every invariant holds before the first IO.  The
  // check is incremental (O(blocks) summaries + the dirty extent); the
  // property suite runs the exhaustive sweep after every remount too.
  check_invariants_incremental();
  return rec;
}

void Ftl::check_invariants() const {
  pool_.check_invariants();
  check_blocks();
}

void Ftl::check_invariants_incremental() const {
  pool_.check_invariants_incremental();
  check_blocks();
}

void Ftl::check_blocks() const {
  for (std::uint64_t b = 0; b < pool_.units(); ++b) {
    ISP_CHECK(pool_.is_full(b) == (!pool_.retired(b) &&
                                   pool_.written(b) == pool_.unit_pages()),
              "full-block bitset drift at block " << b);
  }
}

}  // namespace isp::flash
