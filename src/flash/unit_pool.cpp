#include "flash/unit_pool.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "common/bitset.hpp"
#include "common/error.hpp"

namespace isp::flash {

std::uint64_t UnitPool::checked_logical_pages(const PoolConfig& config) {
  const PoolNames& n = config.names;
  ISP_CHECK(config.overprovision > 0.0 && config.overprovision < 1.0,
            "overprovision fraction must be in (0,1)");
  ISP_CHECK(config.low_watermark >= 1 &&
                config.high_watermark > config.low_watermark,
            "bad " << n.reclaim << " watermarks");
  MetadataLog::check_config(config.journal, config.geometry);

  const std::uint64_t unit_pages =
      std::uint64_t{config.unit_blocks} * config.geometry.pages_per_block;
  const std::uint64_t pool_units =
      config.geometry.total_blocks() / config.unit_blocks -
      config.reserved_units;
  const auto logical_pages = static_cast<std::uint64_t>(
      static_cast<double>(pool_units * unit_pages) *
      (1.0 - config.overprovision));
  // Feasibility: fully-compacted logical data plus the two append units plus
  // the high watermark must fit, or steady-state reclaim cannot converge and
  // appends eventually starve.
  const auto logical_units = (logical_pages + unit_pages - 1) / unit_pages;
  ISP_CHECK(logical_units + 2 + config.high_watermark <= pool_units,
            "overprovision too small for the "
                << n.reclaim << " watermarks: " << logical_units
                << " logical " << n.units << " + 2 " << n.append << " + "
                << config.high_watermark << " watermark > " << pool_units
                << " " << n.pool);
  // page_unit() divides page numbers in 32 bits.
  ISP_CHECK(config.geometry.total_pages() - 1 <= ExactDivider::kMaxDividend,
            "page numbers past 32 bits: " << config.geometry.total_pages()
                                          << " pages");
  return logical_pages;
}

UnitPool::UnitPool(const PoolConfig& config, Hooks& hooks)
    : config_(config),
      hooks_(hooks),
      unit_pages_(config_.unit_blocks * config_.geometry.pages_per_block),
      first_unit_(config_.reserved_units),
      logical_pages_(checked_logical_pages(config_)),
      unit_of_page_(unit_pages_),
      l2p_(logical_pages_),
      p2l_(config_.geometry.total_pages()),
      log_(config_.journal, config_.geometry, logical_pages_,
           config_.geometry.total_blocks() / config_.unit_blocks, unit_pages_,
           config_.journal_programs) {
  const std::uint64_t units =
      config_.geometry.total_blocks() / config_.unit_blocks;
  valid_.assign(units, 0);
  written_.assign(units, 0);
  retired_.assign(units, 0);
  bits_resize(free_bits_, units);
  bits_resize(full_bits_, units);
  bits_resize(valid_bits_, config_.geometry.total_pages());
  bits_set_range(free_bits_, first_unit_, units);
  free_count_ = static_cast<std::uint32_t>(units - first_unit_);
  free_pages_ = (units - first_unit_) * unit_pages_;
  run_lpns_.reserve(unit_pages_);
}

// ---- map layer ------------------------------------------------------------

void UnitPool::check_mounted() const {
  ISP_CHECK(mounted_, config_.names.backend
                          << " not mounted (crashed; call recover() first)");
}

void UnitPool::check_lpn(Lpn lpn) const {
  ISP_CHECK(lpn < logical_pages_, "lpn out of range: " << lpn);
}

void UnitPool::check_span(Lpn first, std::uint64_t count) const {
  check_mounted();
  ISP_CHECK(first <= logical_pages_ && count <= logical_pages_ - first,
            "span out of range: [" << first << ", +" << count << ")");
}

std::optional<Ppn> UnitPool::translate(Lpn lpn) const {
  check_mounted();
  check_lpn(lpn);
  const Ppn ppn = l2p_[lpn];
  if (ppn == kNoPage) return std::nullopt;
  return ppn;
}

std::uint64_t UnitPool::read_span(Lpn first, std::uint64_t count,
                                  std::vector<Ppn>* out) const {
  check_span(first, count);
  std::uint64_t mapped = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (const Ppn ppn = l2p_[first + i]; ppn != kNoPage) {
      ++mapped;
      if (out != nullptr) out->push_back(ppn);
    }
  }
  return mapped;
}

void UnitPool::drop(Ppn ppn) {
  p2l_.set(ppn, kNoPage);
  bit_clear(valid_bits_, ppn);
  std::uint32_t& valid = valid_[page_unit(ppn)];
  ISP_DCHECK(valid > 0, "valid-count underflow");
  --valid;
}

void UnitPool::persist(std::uint64_t journal_pages) {
  stats_.meta_pages += journal_pages;
  if (!log_.fold_due()) return;
  const MetaIo io = log_.fold(l2p_, mapped_count_);
  stats_.meta_pages += io.pages;
  stats_.erases += io.erases;
  ++stats_.checkpoint_folds;
}

void UnitPool::trim_span(Lpn first, std::uint64_t count) {
  check_span(first, count);
  const Lpn end = first + count;
  Lpn lpn = first;
  while (lpn < end) {
    // A run of mapped pages that fits the open journal page: the page fill,
    // and any fold it brings, lands at the run's end, where a page-by-page
    // trim would meet it.  An unmapped page takes no record.  The unit-size
    // cap only bounds the scratch buffer (the journal off is unbounded).
    const std::uint64_t room =
        std::min<std::uint64_t>(log_.record_room(), unit_pages_);
    run_lpns_.clear();
    for (; lpn < end && run_lpns_.size() < room; ++lpn) {
      const Ppn old = l2p_[lpn];
      if (old == kNoPage) continue;
      drop(old);
      l2p_.set(lpn, kNoPage);
      run_lpns_.push_back(lpn);
    }
    if (run_lpns_.empty()) return;
    mapped_count_ -= run_lpns_.size();
    persist(log_.trim_run(run_lpns_.data(), run_lpns_.size()));
  }
}

// ---- appends --------------------------------------------------------------

Ppn UnitPool::claim(std::uint64_t unit, std::uint64_t count) {
  std::uint32_t& written = written_[unit];
  ISP_DCHECK(count <= unit_pages_ - written, "run past the unit's end");
  const Ppn start = first_page(unit) + written;
  // The run's pages were unprogrammed, so no mapping dropped for it lies
  // inside it: its valid bits go in with whole-word masks.
  bits_set_range(valid_bits_, start, start + count);
  written += static_cast<std::uint32_t>(count);
  valid_[unit] += static_cast<std::uint32_t>(count);
  ISP_DCHECK(free_pages_ >= count, "free-page count underflow");
  free_pages_ -= count;
  if (written == unit_pages_) {
    bit_set(full_bits_, unit);
    hooks_.filled(unit);
  }
  return start;
}

void UnitPool::write_run(std::uint64_t unit, Lpn lpn, std::uint64_t count) {
  const Ppn start = claim(unit, count);
  for (std::uint64_t i = 0; i < count; ++i) {
    // No journal record for the old location: validity follows from the
    // newest mapping at remount.
    if (const Ppn old = l2p_[lpn + i]; old != kNoPage) {
      drop(old);
    } else {
      ++mapped_count_;
    }
    l2p_.set(lpn + i, start + i);
    p2l_.set(start + i, lpn + i);
  }
  stats_.host_pages += count;
  persist(log_.program_run(unit, start, lpn, count));
}

void UnitPool::copy_run(std::uint64_t unit, const Lpn* lpns,
                        std::uint64_t count) {
  const Ppn start = claim(unit, count);
  for (std::uint64_t i = 0; i < count; ++i) {
    l2p_.set(lpns[i], start + i);
    p2l_.set(start + i, lpns[i]);
  }
  stats_.reclaim_pages += count;
  persist(log_.program_run(unit, start, lpns, count));
}

Ppn UnitPool::write_at(std::uint64_t unit, Lpn lpn) {
  hooks_.open(unit);
  const Ppn ppn = first_page(unit) + written_[unit];
  write_run(unit, lpn, 1);
  if (free_count_ <= config_.low_watermark) reclaim();
  return ppn;
}

void UnitPool::write_span(Lpn first, std::uint64_t count) {
  check_span(first, count);
  const Lpn end = first + count;
  Lpn lpn = first;
  while (lpn < end) {
    if (is_full(host_)) host_ = allocate();
    hooks_.open(host_);
    // At or below the low watermark every page re-runs the watermark loop
    // (stand-downs included: each counts an invocation), so go page by page.
    if (free_count_ <= config_.low_watermark) {
      write_at(host_, lpn++);
      continue;
    }
    // Bulk run: no page in it allocates or reclaims, and the journal page
    // program or fold the log owes lands exactly at its end, so the
    // per-page checks hoist out.
    const std::uint64_t run = std::min<std::uint64_t>(
        {end - lpn, unit_pages_ - written_[host_], log_.run_room()});
    write_run(host_, lpn, run);
    lpn += run;
  }
}

// ---- units ----------------------------------------------------------------

bool UnitPool::is_free(std::uint64_t unit) const {
  return bit_test(free_bits_, unit);
}

bool UnitPool::is_full(std::uint64_t unit) const {
  return bit_test(full_bits_, unit);
}

void UnitPool::take(std::uint64_t unit) {
  ISP_DCHECK(is_free(unit) && free_count_ > 0, "take of a non-free unit");
  bit_clear(free_bits_, unit);
  --free_count_;
}

void UnitPool::mark_full(std::uint64_t unit) { bit_set(full_bits_, unit); }

std::uint64_t UnitPool::allocate() {
  ISP_CHECK(free_count_ > 0, config_.names.starved);
  const std::uint64_t unit = bits_find_first(free_bits_, first_unit_, units());
  if (unit == units()) {
    throw Error(std::string("free count positive but no free ") +
                config_.names.unit + " found");
  }
  take(unit);
  hooks_.open(unit);
  return unit;
}

void UnitPool::reopen_append_points(const std::vector<std::uint64_t>& partial) {
  if (!partial.empty()) {
    host_ = partial[0];
    hooks_.open(host_);
  } else {
    host_ = allocate();
  }
  if (partial.size() >= 2) {
    reclaim_ = partial[1];
    hooks_.open(reclaim_);
  } else {
    reclaim_ = allocate();
  }
}

std::uint64_t UnitPool::victim() const {
  std::uint64_t victim = units();
  std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
  bits_for_each(full_bits_, first_unit_, units(), [&](std::uint64_t unit) {
    if (unit == host_ || unit == reclaim_) return;
    if (valid_[unit] < best) {
      best = valid_[unit];
      victim = unit;
    }
  });
  // A fully valid victim yields no space: relocating it consumes exactly
  // what erasing it frees.  Write-only workloads meet this until the first
  // overwrite; reclaim stands down until then.
  return best == unit_pages_ ? units() : victim;
}

void UnitPool::reclaim() {
  check_mounted();
  ++stats_.reclaim_invocations;
  while (free_count_ < config_.high_watermark) {
    const std::uint64_t unit = victim();
    if (unit == units()) return;
    relocate(unit);
    erase(unit);
  }
}

void UnitPool::relocate(std::uint64_t unit) {
  // Gather the valid lpns in ascending page order, the order (and so the
  // sequence numbers) of a page-by-page copy, and drop the unit's reverse
  // map, valid bits and count in bulk.
  const Ppn first = first_page(unit);
  run_lpns_.clear();
  bits_for_each(valid_bits_, first, first + written_[unit], [&](Ppn src) {
    run_lpns_.push_back(p2l_[src]);
    bit_clear(valid_bits_, src);
  });
  p2l_.clear(first, written_[unit]);
  valid_[unit] = 0;
  // Copy them in runs that fit the reclaim point and the log's run_room():
  // an allocation can only come between runs, and a journal page or fold
  // only at a run's end, as in a page-by-page copy.
  const std::uint64_t n = run_lpns_.size();
  for (std::uint64_t done = 0; done < n;) {
    if (is_full(reclaim_)) reclaim_ = allocate();
    hooks_.open(reclaim_);
    const std::uint64_t run = std::min<std::uint64_t>(
        {n - done, unit_pages_ - written_[reclaim_], log_.run_room()});
    copy_run(reclaim_, run_lpns_.data() + done, run);
    done += run;
  }
}

void UnitPool::wipe(std::uint64_t unit) {
  ISP_DCHECK(valid_[unit] == 0, "erase of a unit with valid pages");
  const auto ppb = config_.geometry.pages_per_block;
  stats_.erases += (written_[unit] + ppb - 1) / ppb;
  free_pages_ += written_[unit];
  log_.erase(unit);
  written_[unit] = 0;
  bit_clear(full_bits_, unit);
}

void UnitPool::erase(std::uint64_t unit) {
  wipe(unit);
  bit_set(free_bits_, unit);
  ++free_count_;
  hooks_.erased(unit);
}

void UnitPool::retire(std::uint64_t unit) {
  check_mounted();
  if (retired_[unit]) return;
  // Feasibility after losing one more unit, mirroring the constructor.
  const std::uint64_t logical_units =
      (logical_pages_ + unit_pages_ - 1) / unit_pages_;
  ISP_CHECK(logical_units + 2 + config_.high_watermark + retired_count_ + 1 <=
                units() - first_unit_,
            "cannot retire " << config_.names.unit << " " << unit
                             << ": too few healthy " << config_.names.units
                             << " would remain");

  // The append points must not sit on a dying unit.  A free one (a reset
  // ZNS append zone) leaves the free pool first, so allocate() cannot hand
  // it straight back.
  if (is_free(unit)) take(unit);
  if (unit == reclaim_) reclaim_ = allocate();
  if (unit == host_) host_ = allocate();
  relocate(unit);
  wipe(unit);  // the decommission erase
  free_pages_ -= unit_pages_;
  retired_[unit] = 1;
  ++retired_count_;
  ++stats_.units_retired;
  if (config_.journal.enabled) ++stats_.meta_pages;  // retired-table entry
  hooks_.erased(unit);

  // Retirement can eat into the free pool; restore the watermark.
  if (free_count_ <= config_.low_watermark) reclaim();
}

// ---- power loss -----------------------------------------------------------

StorageCrash UnitPool::power_loss() {
  ISP_CHECK(config_.journal.enabled,
            "power_loss() requires journal mode (JournalConfig::enabled)");
  ISP_CHECK(mounted_, "device already crashed");
  // Everything volatile is gone: the maps, the unit bookkeeping and the
  // buffered journal tail.  The log's durable state (OOB stamps, unit
  // headers, journal pages, checkpoint) and the retired table survive.
  // l2p_ is left stale (nothing reads it unmounted, and the replay
  // overwrites it whole); the reverse state is cleared for the rebuild,
  // which installs only the confirmed mappings.
  const StorageCrash crash = log_.lose_tail();
  p2l_.clear();
  std::fill(valid_.begin(), valid_.end(), 0);
  std::fill(written_.begin(), written_.end(), 0);
  bits_clear_all(free_bits_);
  bits_clear_all(full_bits_);
  bits_clear_all(valid_bits_);
  mapped_count_ = 0;
  free_count_ = 0;
  mounted_ = false;
  return crash;
}

StorageRecovery UnitPool::remount(std::vector<std::uint64_t>& partial) {
  ISP_CHECK(config_.journal.enabled, "recover() requires journal mode");
  ISP_CHECK(!mounted_, "recover() on a mounted " << config_.names.backend);
  // The media confirm hands over each surviving mapping: install its
  // reverse entry, valid bit and unit count in the same pass.
  std::uint64_t mapped = 0;
  StorageRecovery rec = log_.replay(l2p_, [&](Lpn lpn, Ppn ppn) {
    p2l_.set(ppn, lpn);
    bit_set(valid_bits_, ppn);
    ++valid_[page_unit(ppn)];
    ++mapped;
  });
  mapped_count_ = mapped;

  // Programs land strictly prefix-ordered, so each unit's append pointer is
  // its durable programmed-prefix header.
  free_pages_ = 0;
  for (std::uint64_t u = first_unit_; u < units(); ++u) {
    if (retired_[u]) continue;
    written_[u] = log_.programmed(u);
    free_pages_ += unit_pages_ - written_[u];
    if (written_[u] == 0) {
      bit_set(free_bits_, u);
      ++free_count_;
    } else if (written_[u] == unit_pages_) {
      bit_set(full_bits_, u);
    } else {
      partial.push_back(u);
    }
  }
  rec.mappings_recovered = mapped_count_;
  mounted_ = true;
  ++stats_.recoveries;
  return rec;
}

// ---- accounting -----------------------------------------------------------

StorageCounters UnitPool::counters() const {
  return StorageCounters{.host_pages = stats_.host_pages,
                         .reclaim_pages = stats_.reclaim_pages,
                         .meta_pages = stats_.meta_pages,
                         .resets = stats_.erases,
                         .reclaim_events = stats_.reclaim_invocations,
                         .recoveries = stats_.recoveries};
}

// ---- invariants -----------------------------------------------------------

void UnitPool::check_invariants_incremental() const {
  ISP_CHECK(mounted_, "invariants undefined on an unmounted "
                          << config_.names.backend);
  // O(units) summary pass: valid counts against the valid-page bitmap (a
  // popcount each), the free/full/retired partition, the durable headers
  // and the free-page count.
  std::uint64_t mapped = 0;
  std::uint32_t free_seen = 0;
  std::uint32_t retired_seen = 0;
  std::uint64_t free_pages = 0;
  for (std::uint64_t u = first_unit_; u < units(); ++u) {
    const Ppn first = first_page(u);
    const std::uint64_t valid =
        bits_count(valid_bits_, first, first + unit_pages_);
    ISP_CHECK(valid == valid_[u], config_.names.unit
                                      << " " << u << " valid-count mismatch");
    mapped += valid;
    ISP_CHECK(written_[u] <= unit_pages_, "append pointer past unit end");
    ISP_CHECK(log_.programmed(u) == written_[u],
              config_.names.unit << " " << u
                                 << " durable programmed-count drift");
    const bool free = is_free(u);
    const bool full = is_full(u);
    ISP_CHECK(!(free && full), config_.names.unit << " " << u
                                                  << " both free and full");
    ISP_CHECK(full || written_[u] < unit_pages_ || retired_[u],
              "full-unit bitset drift at " << config_.names.unit << " " << u);
    if (retired_[u]) {
      ISP_CHECK(!free && !full, "retired unit in the free or full set");
      ISP_CHECK(valid == 0 && written_[u] == 0, "retired unit holds data");
      ++retired_seen;
      continue;
    }
    if (free) {
      ISP_CHECK(valid == 0 && written_[u] == 0,
                "free " << config_.names.unit << " " << u << " holds data");
      ++free_seen;
    }
    free_pages += unit_pages_ - written_[u];
  }
  ISP_CHECK(mapped == mapped_count_, "mapped-count bookkeeping mismatch");
  ISP_CHECK(free_seen == free_count_, "free-count bookkeeping mismatch");
  ISP_CHECK(retired_seen == retired_count_,
            "retired-count bookkeeping mismatch");
  ISP_CHECK(free_seen + retired_seen <= units() - first_unit_,
            "unit partition overflow");
  ISP_CHECK(free_pages == free_pages_,
            "free-page count drifted: " << free_pages_ << " != " << free_pages);
  // Reserved units never hold valid data pages.
  ISP_CHECK(bits_count(valid_bits_, 0, first_page(first_unit_)) == 0,
            "data mapping in a reserved unit");

  // Per-page checks only on the units touched since the last checkpoint
  // fold; the summary pass and the exhaustive sweep cover the rest.
  bits_for_each(log_.dirty(), first_unit_, units(), [&](std::uint64_t u) {
    const Ppn first = first_page(u);
    for (std::uint32_t p = 0; p < unit_pages_; ++p) {
      const Ppn ppn = first + p;
      const Lpn lpn = p2l_[ppn];
      ISP_CHECK(bit_test(valid_bits_, ppn) == (lpn != kNoPage),
                "valid-page bitmap drift at ppn " << ppn);
      if (lpn != kNoPage) {
        ISP_CHECK(p < written_[u], "valid page past the append pointer");
        ISP_CHECK(l2p_[lpn] == ppn, "reverse map disagrees for lpn " << lpn);
      }
    }
    log_.check_unit(u);
  });
}

void UnitPool::check_invariants() const {
  check_invariants_incremental();

  // l2p / p2l are mutually consistent bijections on their valid domain, and
  // every mapped page lies in a pool unit's programmed prefix.
  std::uint64_t mapped = 0;
  for (Lpn lpn = 0; lpn < logical_pages_; ++lpn) {
    if (const Ppn ppn = l2p_[lpn]; ppn != kNoPage) {
      ISP_CHECK(ppn < p2l_.size(), "ppn out of range");
      ISP_CHECK(p2l_[ppn] == lpn, "reverse map disagrees for lpn " << lpn);
      const std::uint64_t u = page_unit(ppn);
      ISP_CHECK(u >= first_unit_, "data mapping in a reserved unit");
      ISP_CHECK(ppn - first_page(u) < written_[u],
                "mapping past " << config_.names.unit << " " << u
                                << "'s append pointer");
      ++mapped;
    }
  }
  std::uint64_t reverse_mapped = 0;
  for (Ppn ppn = 0; ppn < p2l_.size(); ++ppn) {
    ISP_CHECK(bit_test(valid_bits_, ppn) == (p2l_[ppn] != kNoPage),
              "valid-page bitmap drift at ppn " << ppn);
    if (p2l_[ppn] != kNoPage) ++reverse_mapped;
  }
  ISP_CHECK(mapped == reverse_mapped, "map cardinality mismatch");
  ISP_CHECK(mapped == mapped_count_, "mapped-count bookkeeping mismatch");

  // The durable unit headers match the stamps on every unit.
  for (std::uint64_t u = first_unit_; u < units(); ++u) log_.check_unit(u);
}

}  // namespace isp::flash
