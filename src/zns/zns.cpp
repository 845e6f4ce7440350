#include "zns/zns.hpp"

#include <algorithm>
#include <limits>
#include <utility>

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

std::uint64_t ZnsDevice::checked_logical_pages(const ZnsConfig& config) {
  const auto& g = config.geometry;
  ISP_CHECK(config.zone_blocks >= 1, "zones need at least one block");
  ISP_CHECK(g.total_blocks() % config.zone_blocks == 0,
            "zone_blocks must tile the array: " << g.total_blocks() << " % "
                                                << config.zone_blocks);
  const std::uint64_t zone_count = g.total_blocks() / config.zone_blocks;
  ISP_CHECK(zone_count >= config.meta_zones + 4,
            "geometry too small for a zoned namespace");
  ISP_CHECK(config.max_open_zones >= 2,
            "need at least two open zones (host append + reclaim copy)");
  ISP_CHECK(config.overprovision > 0.0 && config.overprovision < 1.0,
            "overprovision fraction must be in (0,1)");
  ISP_CHECK(config.reclaim_low_watermark >= 1 &&
                config.reclaim_high_watermark > config.reclaim_low_watermark,
            "bad reclaim watermarks");
  ISP_CHECK(!config.journal.enabled || config.meta_zones >= 1,
            "journal mode needs a dedicated metadata zone");
  flash::MetadataLog::check_config(config.journal, g);

  const std::uint64_t zone_pages = config.zone_blocks * g.pages_per_block;
  const std::uint64_t data_zone_count = zone_count - config.meta_zones;
  const std::uint64_t logical_pages = static_cast<std::uint64_t>(
      static_cast<double>(data_zone_count * zone_pages) *
      (1.0 - config.overprovision));
  // Feasibility: fully-compacted logical data plus the two append zones plus
  // the reclaim high watermark must fit in the data zones, or steady-state
  // reclaim cannot converge and appends eventually starve.
  const auto logical_zones = (logical_pages + zone_pages - 1) / zone_pages;
  ISP_CHECK(logical_zones + 2 + config.reclaim_high_watermark <=
                data_zone_count,
            "overprovision too small for the reclaim watermarks: "
                << logical_zones << " logical zones + 2 append + "
                << config.reclaim_high_watermark << " watermark > "
                << data_zone_count << " data zones");
  return logical_pages;
}

ZnsDevice::ZnsDevice(ZnsConfig config)
    : config_(config),
      zone_pages_(config_.zone_blocks * config_.geometry.pages_per_block),
      logical_pages_(checked_logical_pages(config_)),
      l2p_(logical_pages_),
      p2l_(config_.geometry.total_pages()),
      log_(config_.journal, config_.geometry, logical_pages_,
           config_.geometry.total_blocks() / config_.zone_blocks, zone_pages_,
           /*journal_programs=*/false) {
  const auto& g = config_.geometry;
  const std::uint64_t zone_count = g.total_blocks() / config_.zone_blocks;
  const std::uint64_t data_zone_count = zone_count - config_.meta_zones;

  zones_.assign(zone_count, Zone{});
  retired_.assign(zone_count, 0);
  free_count_ = static_cast<std::uint32_t>(data_zone_count);
  bits_resize(free_bits_, zone_count);
  bits_resize(full_bits_, zone_count);
  bits_resize(valid_bits_, g.total_pages());
  bits_set_range(free_bits_, config_.meta_zones, zone_count);

  active_zone_ = allocate_append_zone();
  reclaim_zone_ = allocate_append_zone();
}

flash::Ppn ZnsDevice::zone_first_page(std::uint64_t zone) const {
  return zone * zone_pages_;
}

std::uint64_t ZnsDevice::page_zone(flash::Ppn ppn) const {
  return ppn / zone_pages_;
}

ZoneState ZnsDevice::zone_state(std::uint64_t zone) const {
  ISP_CHECK(zone < zones_.size(), "zone out of range: " << zone);
  return zones_[zone].state;
}

std::uint32_t ZnsDevice::write_pointer(std::uint64_t zone) const {
  ISP_CHECK(zone < zones_.size(), "zone out of range: " << zone);
  return zones_[zone].write_pointer;
}

std::uint32_t ZnsDevice::live_pages(std::uint64_t zone) const {
  ISP_CHECK(zone < zones_.size(), "zone out of range: " << zone);
  return zones_[zone].live;
}

std::uint64_t ZnsDevice::write_pointer_pages() const {
  std::uint64_t total = 0;
  for (std::uint64_t z = config_.meta_zones; z < zones_.size(); ++z) {
    total += zones_[z].write_pointer;
  }
  return total;
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
    ++stats_.implicit_closes;
  }
  if (z.state == ZoneState::Empty) {
    ISP_DCHECK(free_count_ > 0, "free-zone count underflow");
    --free_count_;
    bit_clear(free_bits_, zone);
  }
  z.state = state;
  z.opened_at = ++open_stamp_;
  ++open_count_;
}

std::uint64_t ZnsDevice::allocate_append_zone() {
  ISP_CHECK(free_count_ > 0, "ZNS out of empty zones (reclaim starved)");
  // The free-zone bitmap holds exactly the Empty (never-retired) data zones,
  // so the lowest set bit is the zone the old linear state scan chose.
  const std::uint64_t z =
      bits_find_first(free_bits_, config_.meta_zones, zones_.size());
  if (z == zones_.size()) {
    throw Error("free_count_ positive but no empty zone found");
  }
  make_open(z, ZoneState::ImplicitlyOpen);
  return z;
}

void ZnsDevice::invalidate(flash::Lpn lpn) {
  if (const flash::Ppn old = l2p_[lpn]; old != flash::kNoPage) {
    p2l_.set(old, flash::kNoPage);
    bit_clear(valid_bits_, old);
    Zone& z = zones_[page_zone(old)];
    ISP_DCHECK(z.live > 0, "live-count underflow");
    --z.live;
  } else {
    ++mapped_count_;
  }
}

void ZnsDevice::install_mapping(flash::Lpn lpn, flash::Ppn ppn) {
  l2p_.set(lpn, ppn);
  p2l_.set(ppn, lpn);
  bit_set(valid_bits_, ppn);
  const std::uint64_t zone = page_zone(ppn);
  ++zones_[zone].live;
  // The append order *is* the mapping: the OOB stamp alone makes this
  // update recoverable, so — unlike the FTL — no journal record is
  // written.  This is the structural metadata saving of ZNS.
  persist(log_.program(zone, ppn, lpn));
}

flash::Ppn ZnsDevice::do_append(std::uint64_t zone, flash::Lpn lpn) {
  ISP_CHECK(mounted_, "ZNS not mounted (crashed; call recover() first)");
  ISP_CHECK(zone >= config_.meta_zones && zone < zones_.size(),
            "not an appendable data zone: " << zone);
  ISP_CHECK(lpn < logical_pages_, "lpn out of range: " << lpn);
  Zone& z = zones_[zone];
  ISP_CHECK(z.state != ZoneState::Full,
            "append to full zone " << zone << " (reset it first)");
  ISP_CHECK(z.state != ZoneState::Offline, "append to offline zone " << zone);
  if (!is_open(z)) make_open(zone, ZoneState::ImplicitlyOpen);
  ISP_DCHECK(z.write_pointer < zone_pages_, "write pointer past zone cap");

  invalidate(lpn);
  const flash::Ppn ppn = zone_first_page(zone) + z.write_pointer;
  ++z.write_pointer;
  install_mapping(lpn, ppn);
  if (z.write_pointer == zone_pages_) {
    // The zone filled: it leaves the open-resource set on its own.
    --open_count_;
    z.state = ZoneState::Full;
    bit_set(full_bits_, zone);
  }
  return ppn;
}

flash::Ppn ZnsDevice::zone_append(std::uint64_t zone, flash::Lpn lpn) {
  const flash::Ppn ppn = do_append(zone, lpn);
  ++stats_.host_appends;
  if (free_count_ <= config_.reclaim_low_watermark) reclaim();
  return ppn;
}

flash::Ppn ZnsDevice::append_internal(flash::Lpn lpn) {
  if (zones_[reclaim_zone_].state == ZoneState::Full ||
      zones_[reclaim_zone_].state == ZoneState::Offline) {
    reclaim_zone_ = allocate_append_zone();
  }
  const flash::Ppn ppn = do_append(reclaim_zone_, lpn);
  ++stats_.reclaim_copies;
  return ppn;
}

void ZnsDevice::write(flash::Lpn lpn) {
  ISP_CHECK(mounted_, "ZNS not mounted (crashed; call recover() first)");
  ISP_CHECK(lpn < logical_pages_, "lpn out of range: " << lpn);
  if (zones_[active_zone_].state == ZoneState::Full ||
      zones_[active_zone_].state == ZoneState::Offline) {
    active_zone_ = allocate_append_zone();
  }
  zone_append(active_zone_, lpn);
}

std::optional<flash::Ppn> ZnsDevice::translate(flash::Lpn lpn) const {
  ISP_CHECK(mounted_, "ZNS not mounted (crashed; call recover() first)");
  ISP_CHECK(lpn < logical_pages_, "lpn out of range: " << lpn);
  const flash::Ppn ppn = l2p_[lpn];
  if (ppn == flash::kNoPage) return std::nullopt;
  return ppn;
}

void ZnsDevice::trim(flash::Lpn lpn) {
  ISP_CHECK(mounted_, "ZNS not mounted (crashed; call recover() first)");
  ISP_CHECK(lpn < logical_pages_, "lpn out of range: " << lpn);
  trim_one(lpn);
}

void ZnsDevice::trim_one(flash::Lpn lpn) {
  if (const flash::Ppn old = l2p_[lpn]; old != flash::kNoPage) {
    p2l_.set(old, flash::kNoPage);
    bit_clear(valid_bits_, old);
    Zone& z = zones_[page_zone(old)];
    ISP_DCHECK(z.live > 0, "live-count underflow");
    --z.live;
    l2p_.set(lpn, flash::kNoPage);
    --mapped_count_;
    // A trim is the one update the OOB append order cannot reconstruct, so
    // it is the one record the ZNS journal carries.
    persist(log_.trim(lpn));
  }
}

void ZnsDevice::persist(std::uint64_t journal_pages) {
  stats_.meta_appends += journal_pages;
  // Appends never touch the journal, but an unbounded un-checkpointed
  // append history would make remount scan every zone: the log folds at
  // the same update cadence as the FTL (what would have filled
  // checkpoint_interval_pages of journal), so recovery cost stays bounded
  // and the two backends compare fairly.
  if (!log_.fold_due()) return;
  const flash::MetaIo io = log_.fold(l2p_, mapped_count_);
  stats_.meta_appends += io.pages;
  stats_.erases += io.erases;
  ++stats_.checkpoint_folds;
}

void ZnsDevice::open_zone(std::uint64_t zone) {
  ISP_CHECK(mounted_, "ZNS not mounted (crashed; call recover() first)");
  ISP_CHECK(zone >= config_.meta_zones && zone < zones_.size(),
            "not an openable data zone: " << zone);
  const ZoneState s = zones_[zone].state;
  ISP_CHECK(s != ZoneState::Full && s != ZoneState::Offline,
            "cannot open zone " << zone << " from state " << to_string(s));
  make_open(zone, ZoneState::ExplicitlyOpen);
}

void ZnsDevice::close_zone(std::uint64_t zone) {
  ISP_CHECK(mounted_, "ZNS not mounted (crashed; call recover() first)");
  ISP_CHECK(zone >= config_.meta_zones && zone < zones_.size(),
            "not a data zone: " << zone);
  Zone& z = zones_[zone];
  ISP_CHECK(is_open(z),
            "close of zone " << zone << " in state " << to_string(z.state));
  z.state = ZoneState::Closed;
  --open_count_;
}

void ZnsDevice::finish_zone(std::uint64_t zone) {
  ISP_CHECK(mounted_, "ZNS not mounted (crashed; call recover() first)");
  ISP_CHECK(zone >= config_.meta_zones && zone < zones_.size(),
            "not a data zone: " << zone);
  Zone& z = zones_[zone];
  ISP_CHECK(z.state != ZoneState::Offline, "finish of offline zone " << zone);
  if (z.state == ZoneState::Full) return;
  if (is_open(z)) --open_count_;
  if (z.state == ZoneState::Empty) {
    ISP_DCHECK(free_count_ > 0, "free-zone count underflow");
    --free_count_;
    bit_clear(free_bits_, zone);
  }
  z.state = ZoneState::Full;
  bit_set(full_bits_, zone);
}

void ZnsDevice::reset_zone(std::uint64_t zone) {
  ISP_CHECK(mounted_, "ZNS not mounted (crashed; call recover() first)");
  ISP_CHECK(zone >= config_.meta_zones && zone < zones_.size(),
            "not a resettable data zone: " << zone);
  Zone& z = zones_[zone];
  ISP_CHECK(z.state != ZoneState::Offline, "reset of offline zone " << zone);
  if (z.state == ZoneState::Empty) return;  // spec: reset of Empty is a no-op
  ISP_CHECK(z.live == 0,
            "reset of zone " << zone << " would destroy " << z.live
                             << " live pages (copy them forward first)");
  reset_zone_internal(zone);
}

void ZnsDevice::erase_zone_media(std::uint64_t zone) {
  const auto ppb = config_.geometry.pages_per_block;
  stats_.erases += (zones_[zone].write_pointer + ppb - 1) / ppb;
  log_.erase(zone);
}

void ZnsDevice::reset_zone_internal(std::uint64_t zone) {
  Zone& z = zones_[zone];
  ISP_DCHECK(z.live == 0, "reset with live pages");
  if (is_open(z)) --open_count_;
  erase_zone_media(zone);
  z = Zone{};
  bit_set(free_bits_, zone);
  bit_clear(full_bits_, zone);
  ++free_count_;
  ++stats_.zone_resets;
}

void ZnsDevice::copy_forward_live(std::uint64_t zone) {
  // Walk the valid-page bitmap over the programmed prefix instead of probing
  // p2l_ page by page.  append_internal() clears the source bit (it sits
  // under the cursor) and sets the destination bit in the reclaim zone
  // (outside this range — the victim is never the reclaim target), both of
  // which bits_for_each tolerates.
  const flash::Ppn first = zone_first_page(zone);
  bits_for_each(valid_bits_, first, first + zones_[zone].write_pointer,
                [&](flash::Ppn src) { append_internal(p2l_[src]); });
  ISP_DCHECK(zones_[zone].live == 0, "zone not fully relocated");
}

void ZnsDevice::retire_zone(std::uint64_t zone) {
  ISP_CHECK(mounted_, "ZNS not mounted (crashed; call recover() first)");
  ISP_CHECK(zone >= config_.meta_zones && zone < zones_.size(),
            "not a retirable data zone: " << zone);
  if (retired_[zone]) return;
  // Feasibility after losing one more zone, mirroring the constructor.
  const std::uint64_t data_zone_count = zones_.size() - config_.meta_zones;
  const auto logical_zones = (logical_pages_ + zone_pages_ - 1) / zone_pages_;
  ISP_CHECK(logical_zones + 2 + config_.reclaim_high_watermark +
                    retired_count_ + 1 <=
                data_zone_count,
            "cannot retire zone " << zone
                                  << ": too few healthy zones would remain");

  // The append points must not sit on a dying zone.
  if (zone == reclaim_zone_) reclaim_zone_ = allocate_append_zone();
  if (zone == active_zone_) active_zone_ = allocate_append_zone();
  Zone& z = zones_[zone];
  // Copy-forward whatever is still live, exactly like a reclaim victim.
  copy_forward_live(zone);
  if (is_open(z)) --open_count_;
  if (z.state == ZoneState::Empty) {
    ISP_DCHECK(free_count_ > 0, "free-zone count underflow");
    --free_count_;
    bit_clear(free_bits_, zone);
  }
  erase_zone_media(zone);  // decommission erase
  z = Zone{};
  z.state = ZoneState::Offline;
  bit_clear(full_bits_, zone);
  retired_[zone] = 1;
  ++retired_count_;
  ++stats_.zones_retired;
  if (config_.journal.enabled) ++stats_.meta_appends;  // offline-table entry

  // Retirement can eat into the empty pool; restore the watermark.
  if (free_count_ <= config_.reclaim_low_watermark) reclaim();
}

void ZnsDevice::reclaim() {
  ISP_CHECK(mounted_, "ZNS not mounted (crashed; call recover() first)");
  ++stats_.reclaim_invocations;
  while (free_count_ < config_.reclaim_high_watermark) {
    // Host-coordinated victim policy: the Full zone with the fewest live
    // pages (Closed partials stay appendable, so only Full zones qualify —
    // the mirror of the FTL's full-block-only GC).  The full-zone bitmap
    // holds exactly the Full zones (retired zones are Offline, never Full),
    // and the ascending bit walk preserves the old scan's first-strict-min
    // tie-break.
    std::uint64_t victim = zones_.size();
    std::uint32_t best_live = std::numeric_limits<std::uint32_t>::max();
    bits_for_each(full_bits_, config_.meta_zones, zones_.size(),
                  [&](std::uint64_t z) {
                    if (z == active_zone_ || z == reclaim_zone_) return;
                    if (zones_[z].live < best_live) {
                      best_live = zones_[z].live;
                      victim = z;
                    }
                  });
    if (victim == zones_.size()) return;  // nothing reclaimable yet
    // A fully-live victim yields no space: copying it forward consumes
    // exactly what the reset frees.  Stand down until something goes stale.
    if (best_live == zone_pages_) return;

    // Copy the live extents forward, then reset.
    copy_forward_live(victim);
    reset_zone_internal(victim);
  }
}

flash::StorageCrash ZnsDevice::power_loss() {
  ISP_CHECK(config_.journal.enabled,
            "power_loss() requires journal mode (JournalConfig::enabled)");
  ISP_CHECK(mounted_, "device already crashed");
  // Everything volatile is gone: the maps, every zone's state/write
  // pointer/live count, the hot-path bit indexes, and the buffered journal
  // tail (trims only, so every lost record is a lost trim).  The log's
  // durable state and the offline-zone table survive.
  const flash::StorageCrash crash = log_.lose_tail();
  l2p_.clear();
  p2l_.clear();
  for (auto& z : zones_) z = Zone{};
  bits_clear_all(free_bits_);
  bits_clear_all(full_bits_);
  bits_clear_all(valid_bits_);
  mapped_count_ = 0;
  free_count_ = 0;
  open_count_ = 0;
  open_stamp_ = 0;
  mounted_ = false;
  return crash;
}

flash::StorageRecovery ZnsDevice::recover() {
  ISP_CHECK(config_.journal.enabled, "recover() requires journal mode");
  ISP_CHECK(!mounted_, "recover() on a mounted ZNS device");
  flash::StorageRecovery rec = log_.replay(l2p_);

  // Rebuild the volatile state.  Programs advance the write pointer in
  // order, so each zone's durable programmed-prefix header is its write
  // pointer; zone states derive from it (open state is volatile, so
  // survivors come back Empty, Closed or Full).
  std::vector<std::uint64_t> partial;
  for (std::uint64_t z = config_.meta_zones; z < zones_.size(); ++z) {
    Zone& zn = zones_[z];
    zn.write_pointer = log_.programmed(z);
    if (retired_[z]) {
      zn.state = ZoneState::Offline;
    } else if (zn.write_pointer == 0) {
      zn.state = ZoneState::Empty;
      ++free_count_;
      bit_set(free_bits_, z);
    } else if (zn.write_pointer == zone_pages_) {
      zn.state = ZoneState::Full;
      bit_set(full_bits_, z);
    } else {
      zn.state = ZoneState::Closed;
      partial.push_back(z);
    }
  }
  for (flash::Lpn lpn = 0; lpn < logical_pages_; ++lpn) {
    const flash::Ppn ppn = l2p_[lpn];
    if (ppn == flash::kNoPage) continue;
    p2l_.set(ppn, lpn);
    bit_set(valid_bits_, ppn);
    ++zones_[page_zone(ppn)].live;
    ++mapped_count_;
  }
  rec.mappings_recovered = mapped_count_;

  // Re-open append points.  The first two partially written zones become
  // the host and reclaim targets; any further partials are finished so
  // reclaim can take them once their data goes stale (no copy needed —
  // unlike FTL blocks, a finished zone is a first-class reclaim victim).
  mounted_ = true;
  if (!partial.empty()) {
    active_zone_ = partial[0];
    make_open(active_zone_, ZoneState::ImplicitlyOpen);
  } else {
    active_zone_ = allocate_append_zone();
  }
  if (partial.size() >= 2) {
    reclaim_zone_ = partial[1];
    make_open(reclaim_zone_, ZoneState::ImplicitlyOpen);
  } else {
    reclaim_zone_ = allocate_append_zone();
  }
  for (std::size_t i = 2; i < partial.size(); ++i) finish_zone(partial[i]);

  ++stats_.recoveries;
  // The remount contract: every invariant holds before the first IO.  The
  // check is incremental (summaries for all zones, deep page checks only
  // where the device wrote since the last fold); the property suite runs
  // the exhaustive sweep after every remount too.
  check_invariants_incremental();
  return rec;
}

double ZnsDevice::gc_pressure() const {
  const double host = static_cast<double>(stats_.host_appends);
  const double internal =
      static_cast<double>(stats_.reclaim_copies + stats_.meta_appends);
  if (host + internal == 0.0) return 0.0;
  return internal / (host + internal);
}

flash::StorageCounters ZnsDevice::counters() const {
  return flash::StorageCounters{.host_pages = stats_.host_appends,
                                .reclaim_pages = stats_.reclaim_copies,
                                .meta_pages = stats_.meta_appends,
                                .resets = stats_.erases,
                                .reclaim_events = stats_.reclaim_invocations,
                                .recoveries = stats_.recoveries};
}

void ZnsDevice::record_metrics(obs::MetricsRegistry& registry) const {
  registry.counter("zns.host_appends").add(stats_.host_appends);
  registry.counter("zns.reclaim_copies").add(stats_.reclaim_copies);
  registry.counter("zns.meta_appends").add(stats_.meta_appends);
  registry.counter("zns.zone_resets").add(stats_.zone_resets);
  registry.counter("zns.erases").add(stats_.erases);
  registry.counter("zns.reclaim_invocations").add(stats_.reclaim_invocations);
  registry.counter("zns.checkpoint_folds").add(stats_.checkpoint_folds);
  registry.counter("zns.implicit_closes").add(stats_.implicit_closes);
  registry.counter("zns.zones_retired").add(stats_.zones_retired);
  registry.counter("zns.recoveries").add(stats_.recoveries);
  registry.gauge("zns.open_zones").set(static_cast<double>(open_count_));
  registry.gauge("zns.free_zones").set(static_cast<double>(free_count_));
  registry.gauge("zns.write_pointer_pages")
      .set(static_cast<double>(write_pointer_pages()));
  registry.gauge("zns.wa").set(stats_.write_amplification());
  if (stats_.host_appends > 0) {
    registry
        .histogram("zns.write_amplification",
                   obs::HistogramOptions{.min_value = 1.0,
                                         .growth = 1.05,
                                         .buckets = 96})
        .record(stats_.write_amplification());
  }
}

void ZnsDevice::check_invariants() const {
  // The summary pass covers the zone state machine, counters, bit indexes
  // and the dirty zones' pages; the sweep below covers every other page.
  check_invariants_incremental();

  // l2p / p2l are mutually consistent bijections on their valid domain, and
  // every mapped physical page lives inside a data zone's programmed prefix.
  std::uint64_t mapped = 0;
  for (flash::Lpn lpn = 0; lpn < logical_pages_; ++lpn) {
    if (const flash::Ppn ppn = l2p_[lpn]; ppn != flash::kNoPage) {
      ISP_CHECK(ppn < p2l_.size(), "ppn out of range");
      ISP_CHECK(p2l_[ppn] == lpn, "reverse map disagrees for lpn " << lpn);
      const std::uint64_t z = page_zone(ppn);
      ISP_CHECK(z >= config_.meta_zones,
                "data mapping points into the metadata zone");
      ISP_CHECK(ppn - zone_first_page(z) < zones_[z].write_pointer,
                "mapping past zone " << z << "'s write pointer");
      ++mapped;
    }
  }
  std::uint64_t reverse_mapped = 0;
  for (flash::Ppn ppn = 0; ppn < p2l_.size(); ++ppn) {
    ISP_CHECK(bit_test(valid_bits_, ppn) == (p2l_[ppn] != flash::kNoPage),
              "valid-page bitmap drift at ppn " << ppn);
    if (p2l_[ppn] != flash::kNoPage) ++reverse_mapped;
  }
  ISP_CHECK(mapped == reverse_mapped, "map cardinality mismatch");
  ISP_CHECK(mapped == mapped_count_, "mapped-count bookkeeping mismatch");

  // Programmed pages are exactly the prefix [0, write_pointer), and the
  // durable header holds the newest stamp among them.
  for (std::uint64_t z = config_.meta_zones; z < zones_.size(); ++z) {
    log_.check_unit(z);
  }
}

void ZnsDevice::check_invariants_incremental() const {
  ISP_CHECK(mounted_, "invariants undefined on an unmounted ZNS device");

  // Summary pass, O(zones): per-zone counters against the valid-page bitmap
  // (popcount, no page loop), state machine, bit indexes and durable
  // summaries against the volatile bookkeeping.
  std::uint64_t live_total = 0;
  std::uint32_t free_seen = 0;
  std::uint32_t open_seen = 0;
  std::uint32_t retired_seen = 0;
  for (std::uint64_t z = config_.meta_zones; z < zones_.size(); ++z) {
    const Zone& zn = zones_[z];
    const flash::Ppn first = zone_first_page(z);
    const std::uint64_t live =
        bits_count(valid_bits_, first, first + zone_pages_);
    ISP_CHECK(live == zn.live, "zone " << z << " live-count mismatch");
    live_total += live;
    ISP_CHECK(zn.write_pointer <= zone_pages_, "write pointer past zone cap");
    ISP_CHECK(log_.programmed(z) == zn.write_pointer,
              "zone " << z << " durable programmed-count drift");
    ISP_CHECK(bit_test(free_bits_, z) == (zn.state == ZoneState::Empty),
              "free-zone bitmap drift at zone " << z);
    ISP_CHECK(bit_test(full_bits_, z) == (zn.state == ZoneState::Full),
              "full-zone bitmap drift at zone " << z);
    switch (zn.state) {
      case ZoneState::Empty:
        ISP_CHECK(zn.write_pointer == 0 && zn.live == 0,
                  "empty zone " << z << " holds data");
        ++free_seen;
        break;
      case ZoneState::ImplicitlyOpen:
      case ZoneState::ExplicitlyOpen:
        ISP_CHECK(zn.write_pointer < zone_pages_,
                  "open zone " << z << " is at capacity");
        ++open_seen;
        break;
      case ZoneState::Closed:
        ISP_CHECK(zn.write_pointer < zone_pages_,
                  "closed zone " << z << " is at capacity");
        break;
      case ZoneState::Full:
        break;
      case ZoneState::Offline:
        ISP_CHECK(retired_[z], "offline zone " << z << " not in the table");
        ISP_CHECK(zn.live == 0 && zn.write_pointer == 0,
                  "offline zone " << z << " holds data");
        break;
    }
    if (retired_[z]) {
      ISP_CHECK(zn.state == ZoneState::Offline,
                "retired zone " << z << " not offline");
      ++retired_seen;
    }
  }
  ISP_CHECK(live_total == mapped_count_, "mapped-count bookkeeping mismatch");
  ISP_CHECK(free_seen == free_count_, "free-zone bookkeeping mismatch");
  ISP_CHECK(open_seen == open_count_, "open-zone bookkeeping mismatch");
  ISP_CHECK(open_count_ <= config_.max_open_zones,
            "open-zone limit exceeded: " << open_count_);
  ISP_CHECK(retired_seen == retired_count_,
            "retired-count bookkeeping mismatch");
  ISP_CHECK(free_seen + retired_seen <= data_zones(),
            "zone partition overflow");
  // The metadata zones never hold valid data pages.
  ISP_CHECK(bits_count(valid_bits_, 0, zone_first_page(config_.meta_zones)) ==
                0,
            "data mapping in the metadata zone");

  // Deep pass, only over zones the device touched since the last checkpoint
  // fold: per-page bitmap/map round trips and the programmed-prefix + OOB
  // summary properties.
  bits_for_each(
      log_.dirty(), config_.meta_zones, zones_.size(), [&](std::uint64_t z) {
        const Zone& zn = zones_[z];
        const flash::Ppn first = zone_first_page(z);
        for (std::uint32_t p = 0; p < zone_pages_; ++p) {
          const flash::Ppn ppn = first + p;
          const flash::Lpn lpn = p2l_[ppn];
          ISP_CHECK(bit_test(valid_bits_, ppn) == (lpn != flash::kNoPage),
                    "valid-page bitmap drift at ppn " << ppn);
          if (lpn != flash::kNoPage) {
            ISP_CHECK(p < zn.write_pointer, "live page past the write pointer");
            ISP_CHECK(l2p_[lpn] == ppn, "map round trip broken at ppn " << ppn);
          }
        }
        log_.check_unit(z);
      });
}

void ZnsDevice::write_span(flash::Lpn first, std::uint64_t count) {
  ISP_CHECK(mounted_, "ZNS not mounted (crashed; call recover() first)");
  ISP_CHECK(first <= logical_pages_ && count <= logical_pages_ - first,
            "write_span out of range: [" << first << ", +" << count << ")");
  flash::Lpn lpn = first;
  std::uint64_t left = count;
  while (left > 0) {
    Zone& az = zones_[active_zone_];
    // Fall back to the scalar path whenever a single append could do more
    // than advance the write pointer: the active zone needs replacing or
    // (re)opening, or the device sits at the reclaim watermark — write()
    // invokes reclaim() after every append there, and the invocation count
    // is observable in the stats even when reclaim stands down.
    if (free_count_ <= config_.reclaim_low_watermark ||
        az.state == ZoneState::Full || az.state == ZoneState::Offline ||
        !is_open(az)) {
      write(lpn);
      ++lpn;
      --left;
      continue;
    }
    // Bulk run: the active zone is open with room and no append in the run
    // opens a zone or triggers reclaim, so the per-page checks hoist out
    // and the zone/journal bookkeeping lands once for the whole run.
    std::uint64_t run =
        std::min<std::uint64_t>(left, zone_pages_ - az.write_pointer);
    // The fold lands exactly where the scalar loop folds.
    if (config_.journal.enabled) run = std::min(run, log_.programs_until_fold());
    const flash::Ppn start = zone_first_page(active_zone_) + az.write_pointer;
    const flash::Lpn lpn0 = lpn;
    for (std::uint64_t i = 0; i < run; ++i, ++lpn) {
      invalidate(lpn);
      l2p_.set(lpn, start + i);
      p2l_.set(start + i, lpn);
    }
    bits_set_range(valid_bits_, start, start + run);
    az.write_pointer += static_cast<std::uint32_t>(run);
    az.live += static_cast<std::uint32_t>(run);
    left -= run;
    stats_.host_appends += run;
    if (az.write_pointer == zone_pages_) {
      // The zone filled: it leaves the open-resource set on its own.
      --open_count_;
      az.state = ZoneState::Full;
      bit_set(full_bits_, active_zone_);
    }
    persist(log_.program_run(active_zone_, start, lpn0, run));
  }
}

void ZnsDevice::trim_span(flash::Lpn first, std::uint64_t count) {
  ISP_CHECK(mounted_, "ZNS not mounted (crashed; call recover() first)");
  ISP_CHECK(first <= logical_pages_ && count <= logical_pages_ - first,
            "trim_span out of range: [" << first << ", +" << count << ")");
  for (std::uint64_t i = 0; i < count; ++i) trim_one(first + i);
}

std::uint64_t ZnsDevice::read_span(flash::Lpn first, std::uint64_t count,
                                   std::vector<flash::Ppn>* out) const {
  ISP_CHECK(mounted_, "ZNS not mounted (crashed; call recover() first)");
  ISP_CHECK(first <= logical_pages_ && count <= logical_pages_ - first,
            "read_span out of range: [" << first << ", +" << count << ")");
  std::uint64_t mapped = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (const flash::Ppn ppn = l2p_[first + i]; ppn != flash::kNoPage) {
      ++mapped;
      if (out != nullptr) out->push_back(ppn);
    }
  }
  return mapped;
}

}  // namespace isp::zns
