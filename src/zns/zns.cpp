#include "zns/zns.hpp"

#include <limits>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace isp::zns {

const char* to_string(ZoneState state) {
  switch (state) {
    case ZoneState::Empty:
      return "empty";
    case ZoneState::ImplicitlyOpen:
      return "implicitly-open";
    case ZoneState::ExplicitlyOpen:
      return "explicitly-open";
    case ZoneState::Closed:
      return "closed";
    case ZoneState::Full:
      return "full";
    case ZoneState::Offline:
      return "offline";
  }
  ISP_CHECK(false, "unknown zone state: " << static_cast<unsigned>(state));
  return "?";
}

namespace {

/// The ZNS pool: one zone per unit, the metadata zones reserved.  Makes the
/// zone-specific config checks first.
flash::PoolConfig pool_config(const ZnsConfig& config) {
  const auto& g = config.geometry;
  ISP_CHECK(config.zone_blocks >= 1, "zones need at least one block");
  ISP_CHECK(g.total_blocks() % config.zone_blocks == 0,
            "zone_blocks must tile the array: " << g.total_blocks() << " % "
                                                << config.zone_blocks);
  ISP_CHECK(g.total_blocks() / config.zone_blocks >= config.meta_zones + 4,
            "geometry too small for a zoned namespace");
  ISP_CHECK(config.max_open_zones >= 2,
            "need at least two open zones (host append + reclaim copy)");
  ISP_CHECK(!config.journal.enabled || config.meta_zones >= 1,
            "journal mode needs a dedicated metadata zone");
  return flash::PoolConfig{
      .geometry = g,
      .journal = config.journal,
      .unit_blocks = config.zone_blocks,
      .reserved_units = config.meta_zones,
      .overprovision = config.overprovision,
      .low_watermark = config.reclaim_low_watermark,
      .high_watermark = config.reclaim_high_watermark,
      // The append order is the mapping: the OOB stamp alone makes a
      // program recoverable, so no journal record is written for it.  This
      // is the structural metadata saving of ZNS.
      .journal_programs = false,
      .names = {.backend = "ZNS",
                .unit = "zone",
                .units = "zones",
                .reclaim = "reclaim",
                .append = "append",
                .pool = "data zones",
                .starved = "ZNS out of empty zones (reclaim starved)"}};
}

}  // namespace

std::uint64_t ZnsDevice::checked_logical_pages(const ZnsConfig& config) {
  return flash::UnitPool::checked_logical_pages(pool_config(config));
}

ZnsDevice::ZnsDevice(ZnsConfig config)
    : config_(config), pool_(pool_config(config_), *this) {
  zones_.assign(pool_.units(), Zone{});
  pool_.reopen_append_points({});
}

ZnsStats ZnsDevice::stats() const {
  const flash::PoolStats& s = pool_.stats();
  return ZnsStats{.host_appends = s.host_pages,
                  .reclaim_copies = s.reclaim_pages,
                  .meta_appends = s.meta_pages,
                  .zone_resets = zone_resets_,
                  .erases = s.erases,
                  .reclaim_invocations = s.reclaim_invocations,
                  .checkpoint_folds = s.checkpoint_folds,
                  .implicit_closes = implicit_closes_,
                  .zones_retired = s.units_retired,
                  .recoveries = s.recoveries};
}

ZoneState ZnsDevice::zone_state(std::uint64_t zone) const {
  ISP_CHECK(zone < zones_.size(), "zone out of range: " << zone);
  return zones_[zone].state;
}

std::uint32_t ZnsDevice::write_pointer(std::uint64_t zone) const {
  ISP_CHECK(zone < zones_.size(), "zone out of range: " << zone);
  return pool_.written(zone);
}

std::uint32_t ZnsDevice::live_pages(std::uint64_t zone) const {
  ISP_CHECK(zone < zones_.size(), "zone out of range: " << zone);
  return pool_.valid(zone);
}

std::uint64_t ZnsDevice::write_pointer_pages() const {
  std::uint64_t total = 0;
  for (std::uint64_t z = config_.meta_zones; z < zones_.size(); ++z) {
    total += pool_.written(z);
  }
  return total;
}

void ZnsDevice::check_data_zone(std::uint64_t zone, const char* what) const {
  pool_.check_mounted();
  ISP_CHECK(zone >= config_.meta_zones && zone < zones_.size(),
            "not " << what << " data zone: " << zone);
}

void ZnsDevice::make_open(std::uint64_t zone, ZoneState state) {
  Zone& z = zones_[zone];
  if (is_open(z)) {
    // Implicit→explicit (or the reverse) keeps the resource slot.
    z.state = state;
    z.opened_at = ++open_stamp_;
    return;
  }
  ISP_CHECK(z.state == ZoneState::Empty || z.state == ZoneState::Closed,
            "zone " << zone << " not openable from state "
                    << to_string(z.state));
  if (open_count_ == config_.max_open_zones) {
    // Shed the least-recently-opened zone, like a controller reclaiming its
    // open-zone resources for the new open.
    std::uint64_t lru = zones_.size();
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (std::uint64_t other = config_.meta_zones; other < zones_.size();
         ++other) {
      if (other == zone || !is_open(zones_[other])) continue;
      if (zones_[other].opened_at < best) {
        best = zones_[other].opened_at;
        lru = other;
      }
    }
    ISP_CHECK(lru < zones_.size(), "open-zone limit hit with nothing to shed");
    zones_[lru].state = ZoneState::Closed;
    --open_count_;
    ++implicit_closes_;
  }
  // An Empty zone the pool allocated is already out of the free pool.
  if (pool_.is_free(zone)) pool_.take(zone);
  z.state = state;
  z.opened_at = ++open_stamp_;
  ++open_count_;
}

void ZnsDevice::open(std::uint64_t zone) {
  if (!is_open(zones_[zone])) make_open(zone, ZoneState::ImplicitlyOpen);
}

void ZnsDevice::filled(std::uint64_t zone) {
  --open_count_;
  zones_[zone].state = ZoneState::Full;
}

void ZnsDevice::erased(std::uint64_t zone) {
  Zone& z = zones_[zone];
  if (is_open(z)) --open_count_;
  z = Zone{};
  if (pool_.retired(zone)) {
    z.state = ZoneState::Offline;
  } else {
    ++zone_resets_;
  }
}

flash::Ppn ZnsDevice::zone_append(std::uint64_t zone, flash::Lpn lpn) {
  check_data_zone(zone, "an appendable");
  pool_.check_lpn(lpn);
  const ZoneState s = zones_[zone].state;
  ISP_CHECK(s != ZoneState::Full,
            "append to full zone " << zone << " (reset it first)");
  ISP_CHECK(s != ZoneState::Offline, "append to offline zone " << zone);
  return pool_.write_at(zone, lpn);
}

void ZnsDevice::open_zone(std::uint64_t zone) {
  check_data_zone(zone, "an openable");
  const ZoneState s = zones_[zone].state;
  ISP_CHECK(s != ZoneState::Full && s != ZoneState::Offline,
            "cannot open zone " << zone << " from state " << to_string(s));
  make_open(zone, ZoneState::ExplicitlyOpen);
}

void ZnsDevice::close_zone(std::uint64_t zone) {
  check_data_zone(zone, "a");
  Zone& z = zones_[zone];
  ISP_CHECK(is_open(z),
            "close of zone " << zone << " in state " << to_string(z.state));
  z.state = ZoneState::Closed;
  --open_count_;
}

void ZnsDevice::finish_zone(std::uint64_t zone) {
  check_data_zone(zone, "a");
  Zone& z = zones_[zone];
  ISP_CHECK(z.state != ZoneState::Offline, "finish of offline zone " << zone);
  if (z.state == ZoneState::Full) return;
  if (is_open(z)) --open_count_;
  if (z.state == ZoneState::Empty) pool_.take(zone);
  z.state = ZoneState::Full;
  pool_.mark_full(zone);
}

void ZnsDevice::reset_zone(std::uint64_t zone) {
  check_data_zone(zone, "a resettable");
  const Zone& z = zones_[zone];
  ISP_CHECK(z.state != ZoneState::Offline, "reset of offline zone " << zone);
  if (z.state == ZoneState::Empty) return;  // spec: reset of Empty is a no-op
  ISP_CHECK(pool_.valid(zone) == 0,
            "reset of zone " << zone << " would destroy " << pool_.valid(zone)
                             << " live pages (copy them forward first)");
  pool_.erase(zone);
}

void ZnsDevice::retire_zone(std::uint64_t zone) {
  check_data_zone(zone, "a retirable");
  pool_.retire(zone);
}

void ZnsDevice::reclaim() { pool_.reclaim(); }

flash::StorageCrash ZnsDevice::power_loss() {
  // Everything volatile is gone: with the pool's maps and indexes, every
  // zone's state and the open-zone bookkeeping.  The journal tail holds
  // trims only, so every lost record is a lost trim.
  const flash::StorageCrash crash = pool_.power_loss();
  for (auto& z : zones_) z = Zone{};
  open_count_ = 0;
  open_stamp_ = 0;
  return crash;
}

flash::StorageRecovery ZnsDevice::recover() {
  std::vector<std::uint64_t> partial;
  const flash::StorageRecovery rec = pool_.remount(partial);
  // Zone states derive from the rebuilt write pointers (open state is
  // volatile, so survivors come back Empty, Closed or Full).
  for (std::uint64_t z = config_.meta_zones; z < zones_.size(); ++z) {
    zones_[z].state = pool_.retired(z)  ? ZoneState::Offline
                      : pool_.is_free(z) ? ZoneState::Empty
                      : pool_.is_full(z) ? ZoneState::Full
                                         : ZoneState::Closed;
  }
  // The first two partially written zones become the host and reclaim
  // targets; any further partials are finished so reclaim can take them
  // once their data goes stale (no copy needed — unlike FTL blocks, a
  // finished zone is a first-class reclaim victim).
  pool_.reopen_append_points(partial);
  for (std::size_t i = 2; i < partial.size(); ++i) finish_zone(partial[i]);
  // The remount contract: every invariant holds before the first IO.  The
  // check is incremental (summaries for all zones, deep page checks only
  // where the device wrote since the last fold); the property suite runs
  // the exhaustive sweep after every remount too.
  check_invariants_incremental();
  return rec;
}

void ZnsDevice::record_metrics(obs::MetricsRegistry& registry) const {
  const ZnsStats s = stats();
  registry.counter("zns.host_appends").add(s.host_appends);
  registry.counter("zns.reclaim_copies").add(s.reclaim_copies);
  registry.counter("zns.meta_appends").add(s.meta_appends);
  registry.counter("zns.zone_resets").add(s.zone_resets);
  registry.counter("zns.erases").add(s.erases);
  registry.counter("zns.reclaim_invocations").add(s.reclaim_invocations);
  registry.counter("zns.checkpoint_folds").add(s.checkpoint_folds);
  registry.counter("zns.implicit_closes").add(s.implicit_closes);
  registry.counter("zns.zones_retired").add(s.zones_retired);
  registry.counter("zns.recoveries").add(s.recoveries);
  registry.gauge("zns.open_zones").set(static_cast<double>(open_count_));
  registry.gauge("zns.free_zones").set(static_cast<double>(free_zones()));
  registry.gauge("zns.write_pointer_pages")
      .set(static_cast<double>(write_pointer_pages()));
  registry.gauge("zns.wa").set(s.write_amplification());
  if (s.host_appends > 0) {
    registry
        .histogram("zns.write_amplification",
                   obs::HistogramOptions{.min_value = 1.0,
                                         .growth = 1.05,
                                         .buckets = 96})
        .record(s.write_amplification());
  }
}

void ZnsDevice::check_invariants() const {
  pool_.check_invariants();
  check_zones();
}

void ZnsDevice::check_invariants_incremental() const {
  pool_.check_invariants_incremental();
  check_zones();
}

void ZnsDevice::check_zones() const {
  // The pool checks pages, counts and the free/full/retired partition; the
  // zone states must agree with that partition, and open zones with the
  // open-resource count.
  std::uint32_t open_seen = 0;
  for (std::uint64_t z = config_.meta_zones; z < zones_.size(); ++z) {
    const ZoneState s = zones_[z].state;
    ISP_CHECK(pool_.is_free(z) == (s == ZoneState::Empty),
              "free-zone bitmap drift at zone " << z);
    ISP_CHECK(pool_.is_full(z) == (s == ZoneState::Full),
              "full-zone bitmap drift at zone " << z);
    ISP_CHECK(pool_.retired(z) == (s == ZoneState::Offline),
              "offline zone " << z << " disagrees with the retired table");
    if (s == ZoneState::ImplicitlyOpen || s == ZoneState::ExplicitlyOpen ||
        s == ZoneState::Closed) {
      ISP_CHECK(pool_.written(z) < zone_pages(),
                to_string(s) << " zone " << z << " is at capacity");
    }
    if (is_open(zones_[z])) ++open_seen;
  }
  ISP_CHECK(open_seen == open_count_, "open-zone bookkeeping mismatch");
  ISP_CHECK(open_count_ <= config_.max_open_zones,
            "open-zone limit exceeded: " << open_count_);
}

}  // namespace isp::zns
