#include "flash/ftl.hpp"

#include <algorithm>
#include <limits>

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

std::uint64_t Ftl::checked_logical_pages(const FtlConfig& config) {
  const auto& g = config.geometry;
  ISP_CHECK(g.total_blocks() >= 4, "geometry too small for an FTL");
  ISP_CHECK(config.overprovision > 0.0 && config.overprovision < 1.0,
            "overprovision fraction must be in (0,1)");
  ISP_CHECK(config.gc_low_watermark >= 1 &&
                config.gc_high_watermark > config.gc_low_watermark,
            "bad GC watermarks");
  MetadataLog::check_config(config.journal, g);

  const auto logical_pages = static_cast<std::uint64_t>(
      static_cast<double>(g.total_pages()) * (1.0 - config.overprovision));
  // Feasibility: fully-compacted logical data plus the two append blocks
  // plus the GC high watermark must fit, or steady-state GC cannot converge
  // and the FTL eventually starves.
  const auto logical_blocks =
      (logical_pages + g.pages_per_block - 1) / g.pages_per_block;
  ISP_CHECK(logical_blocks + 2 + config.gc_high_watermark <=
                g.total_blocks(),
            "overprovision too small for the GC watermarks: "
                << logical_blocks << " logical blocks + 2 active + "
                << config.gc_high_watermark << " watermark > "
                << g.total_blocks() << " total");
  return logical_pages;
}

Ftl::Ftl(FtlConfig config)
    : config_(config),
      logical_pages_(checked_logical_pages(config_)),
      l2p_(logical_pages_),
      p2l_(config_.geometry.total_pages()),
      log_(config_.journal, config_.geometry, logical_pages_,
           config_.geometry.total_blocks(), config_.geometry.pages_per_block,
           /*journal_programs=*/true) {
  const auto& g = config_.geometry;
  blocks_.assign(g.total_blocks(), Block{});
  retired_.assign(g.total_blocks(), 0);
  free_count_ = static_cast<std::uint32_t>(g.total_blocks());
  bits_resize(free_bits_, g.total_blocks());
  bits_set_range(free_bits_, 0, g.total_blocks());
  bits_resize(full_bits_, g.total_blocks());
  bits_resize(valid_bits_, g.total_pages());

  active_block_ = allocate_free_block();
  gc_active_block_ = allocate_free_block();
  stats_.free_pages =
      static_cast<std::uint64_t>(g.total_blocks()) * g.pages_per_block;
}

Ppn Ftl::block_first_page(std::uint64_t block) const {
  return block * config_.geometry.pages_per_block;
}

std::uint64_t Ftl::page_block(Ppn ppn) const {
  return ppn / config_.geometry.pages_per_block;
}

std::uint64_t Ftl::allocate_free_block() {
  ISP_CHECK(free_count_ > 0, "FTL out of free blocks (GC starved)");
  // Lowest-index free block via a ctz word walk over the free-block bitset:
  // the same choice the old linear struct scan made, in O(blocks/64).
  const std::uint64_t b = bits_find_first(free_bits_, 0, blocks_.size());
  if (b == blocks_.size()) {
    throw Error("free_count_ positive but no free block found");
  }
  blocks_[b].is_free = false;
  blocks_[b].next_free_page = 0;
  blocks_[b].valid = 0;
  bit_clear(free_bits_, b);
  --free_count_;
  return b;
}

Ppn Ftl::append_to_active(bool for_gc) {
  std::uint64_t& active = for_gc ? gc_active_block_ : active_block_;
  if (blocks_[active].next_free_page == config_.geometry.pages_per_block) {
    active = allocate_free_block();
  }
  Block& blk = blocks_[active];
  const Ppn ppn = block_first_page(active) + blk.next_free_page;
  ++blk.next_free_page;
  if (blk.next_free_page == config_.geometry.pages_per_block) {
    bit_set(full_bits_, active);
  }
  ISP_DCHECK(stats_.free_pages > 0, "free-page gauge underflow");
  --stats_.free_pages;
  return ppn;
}

void Ftl::persist(std::uint64_t journal_pages) {
  stats_.meta_writes += journal_pages;
  if (!log_.fold_due()) return;
  const MetaIo io = log_.fold(l2p_, mapped_count_);
  stats_.meta_writes += io.pages;
  stats_.erases += io.erases;
  ++stats_.checkpoint_folds;
}

void Ftl::install_mapping(Lpn lpn, Ppn ppn) {
  l2p_.set(lpn, ppn);
  p2l_.set(ppn, lpn);
  bit_set(valid_bits_, ppn);
  const std::uint64_t block = page_block(ppn);
  ++blocks_[block].valid;
  persist(log_.program(block, ppn, lpn));
}

void Ftl::write(Lpn lpn) {
  ISP_CHECK(mounted_, "FTL not mounted (crashed; call recover() first)");
  ISP_CHECK(lpn < logical_pages_, "lpn out of range: " << lpn);
  // Invalidate the previous location, if any.  No journal entry is needed
  // for the invalidation itself: validity is derived from the newest
  // mapping during recovery.
  if (const Ppn old = l2p_[lpn]; old != kNoPage) {
    p2l_.set(old, kNoPage);
    bit_clear(valid_bits_, old);
    Block& blk = blocks_[page_block(old)];
    ISP_DCHECK(blk.valid > 0, "valid-count underflow");
    --blk.valid;
  } else {
    ++mapped_count_;
  }
  const Ppn ppn = append_to_active(/*for_gc=*/false);
  install_mapping(lpn, ppn);
  ++stats_.host_writes;

  if (free_count_ <= config_.gc_low_watermark) garbage_collect();
}

void Ftl::write_span(Lpn first, std::uint64_t count) {
  ISP_CHECK(mounted_, "FTL not mounted (crashed; call recover() first)");
  ISP_CHECK(first <= logical_pages_ && count <= logical_pages_ - first,
            "span out of range: [" << first << ", +" << count << ")");
  const auto pages_per_block = config_.geometry.pages_per_block;
  const bool journal = config_.journal.enabled;
  Lpn lpn = first;
  std::uint64_t left = count;
  while (left > 0) {
    // Page-by-page regimes: at or below the GC low watermark the scalar
    // path re-invokes the collector after every write (stand-downs included
    // — they still count as gc_invocations), and a full active block means
    // the next write allocates.  write() reproduces both exactly.
    if (free_count_ <= config_.gc_low_watermark ||
        blocks_[active_block_].next_free_page == pages_per_block) {
      write(lpn);
      ++lpn;
      --left;
      continue;
    }
    // Bulk regime: free_count_ cannot change inside the run (no allocation,
    // and the journal page program / fold lands exactly at the run end), so
    // the per-page watermark and block-full checks hoist out.
    Block& blk = blocks_[active_block_];
    std::uint64_t run =
        std::min<std::uint64_t>(left, pages_per_block - blk.next_free_page);
    if (journal) run = std::min(run, log_.room_in_page());
    const Ppn start = block_first_page(active_block_) + blk.next_free_page;
    // The freshly-programmed pages form one contiguous PPN run: their valid
    // bits go in with whole-word masks.  An old mapping invalidated below
    // can never land inside [start, start + run) — those pages were
    // unprogrammed until now.
    bits_set_range(valid_bits_, start, start + run);
    const Lpn lpn0 = lpn;
    for (std::uint64_t i = 0; i < run; ++i, ++lpn) {
      if (const Ppn old = l2p_[lpn]; old != kNoPage) {
        p2l_.set(old, kNoPage);
        bit_clear(valid_bits_, old);
        Block& ob = blocks_[page_block(old)];
        ISP_DCHECK(ob.valid > 0, "valid-count underflow");
        --ob.valid;
      } else {
        ++mapped_count_;
      }
      l2p_.set(lpn, start + i);
      p2l_.set(start + i, lpn);
    }
    blk.next_free_page += static_cast<std::uint32_t>(run);
    blk.valid += static_cast<std::uint32_t>(run);
    stats_.host_writes += run;
    ISP_DCHECK(stats_.free_pages >= run, "free-page gauge underflow");
    stats_.free_pages -= run;
    if (blk.next_free_page == pages_per_block) {
      bit_set(full_bits_, active_block_);
    }
    persist(log_.program_run(active_block_, start, lpn0, run));
    left -= run;
  }
}

std::optional<Ppn> Ftl::translate(Lpn lpn) const {
  ISP_CHECK(mounted_, "FTL not mounted (crashed; call recover() first)");
  ISP_CHECK(lpn < logical_pages_, "lpn out of range: " << lpn);
  const Ppn ppn = l2p_[lpn];
  if (ppn == kNoPage) return std::nullopt;
  return ppn;
}

void Ftl::trim_one(Lpn lpn) {
  if (const Ppn old = l2p_[lpn]; old != kNoPage) {
    p2l_.set(old, kNoPage);
    bit_clear(valid_bits_, old);
    Block& blk = blocks_[page_block(old)];
    ISP_DCHECK(blk.valid > 0, "valid-count underflow");
    --blk.valid;
    l2p_.set(lpn, kNoPage);
    --mapped_count_;
    persist(log_.trim(lpn));
  }
}

void Ftl::trim(Lpn lpn) {
  ISP_CHECK(mounted_, "FTL not mounted (crashed; call recover() first)");
  ISP_CHECK(lpn < logical_pages_, "lpn out of range: " << lpn);
  trim_one(lpn);
}

void Ftl::trim_span(Lpn first, std::uint64_t count) {
  ISP_CHECK(mounted_, "FTL not mounted (crashed; call recover() first)");
  ISP_CHECK(first <= logical_pages_ && count <= logical_pages_ - first,
            "span out of range: [" << first << ", +" << count << ")");
  for (std::uint64_t i = 0; i < count; ++i) trim_one(first + i);
}

std::uint64_t Ftl::read_span(Lpn first, std::uint64_t count,
                             std::vector<Ppn>* out) const {
  ISP_CHECK(mounted_, "FTL not mounted (crashed; call recover() first)");
  ISP_CHECK(first <= logical_pages_ && count <= logical_pages_ - first,
            "span out of range: [" << first << ", +" << count << ")");
  std::uint64_t mapped = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (const Ppn ppn = l2p_[first + i]; ppn != kNoPage) {
      ++mapped;
      if (out != nullptr) out->push_back(ppn);
    }
  }
  return mapped;
}

void Ftl::relocate_block(std::uint64_t block) {
  // Ascending valid-bit walk: the same page visit order (and therefore the
  // same sequence-number assignment) as the old 0..pages_per_block loop.
  const Ppn first = block_first_page(block);
  bits_for_each(
      valid_bits_, first, first + config_.geometry.pages_per_block,
      [&](std::uint64_t src) {
        const Lpn lpn = p2l_[src];
        ISP_DCHECK(lpn != kNoPage, "valid bit set on unmapped page");
        const Ppn dst = append_to_active(/*for_gc=*/true);
        p2l_.set(src, kNoPage);
        bit_clear(valid_bits_, src);
        --blocks_[block].valid;
        install_mapping(lpn, dst);
        ++stats_.gc_writes;
      });
  ISP_DCHECK(blocks_[block].valid == 0, "block not fully relocated");
}

void Ftl::retire_block(std::uint64_t block) {
  ISP_CHECK(mounted_, "FTL not mounted (crashed; call recover() first)");
  ISP_CHECK(block < blocks_.size(), "block out of range: " << block);
  if (retired_[block]) return;
  // Feasibility after losing one more block, mirroring the constructor.
  const auto& g = config_.geometry;
  const auto logical_blocks =
      (logical_pages_ + g.pages_per_block - 1) / g.pages_per_block;
  ISP_CHECK(logical_blocks + 2 + config_.gc_high_watermark + retired_count_ +
                    1 <=
                g.total_blocks(),
            "cannot retire block " << block
                                   << ": too few healthy blocks would remain");

  // The append points must not sit on a dying block.
  const bool had_data = blocks_[block].next_free_page > 0;
  if (block == active_block_ || block == gc_active_block_) {
    std::uint64_t replacement = allocate_free_block();
    (block == active_block_ ? active_block_ : gc_active_block_) = replacement;
  }
  // Relocate whatever is still valid, exactly like a GC victim.
  relocate_block(block);
  if (blocks_[block].is_free) {
    bit_clear(free_bits_, block);
    --free_count_;
  } else if (had_data) {
    ++stats_.erases;  // decommission erase of a programmed block
  }
  // The retired block's unwritten remainder leaves the writable pool.
  stats_.free_pages -= g.pages_per_block - blocks_[block].next_free_page;
  log_.erase(block);
  blocks_[block] = Block{};
  blocks_[block].is_free = false;
  blocks_[block].next_free_page = g.pages_per_block;  // never appendable
  bit_clear(full_bits_, block);  // never a GC candidate again
  retired_[block] = 1;
  ++retired_count_;
  ++stats_.blocks_retired;
  if (config_.journal.enabled) ++stats_.meta_writes;  // bad-block table entry

  // Retirement can eat into the free pool; let GC restore the watermark.
  if (free_count_ <= config_.gc_low_watermark) garbage_collect();
}

void Ftl::garbage_collect() {
  ++stats_.gc_invocations;
  const auto pages_per_block = config_.geometry.pages_per_block;
  while (free_count_ < config_.gc_high_watermark) {
    // Greedy victim via the full-block bitset (full, non-free, non-retired
    // by construction): the first strict minimum in ascending block order —
    // the old O(blocks) struct scan's choice, in O(popcount).
    std::uint64_t victim = blocks_.size();
    std::uint32_t best_valid = std::numeric_limits<std::uint32_t>::max();
    bits_for_each(full_bits_, 0, blocks_.size(), [&](std::uint64_t b) {
      if (b == active_block_ || b == gc_active_block_) return;
      if (blocks_[b].valid < best_valid) {
        best_valid = blocks_[b].valid;
        victim = b;
      }
    });
    if (victim == blocks_.size()) return;  // nothing reclaimable yet
    // A fully-valid victim yields no space: relocating it consumes exactly
    // what erasing frees.  Fresh-write (no-overwrite) workloads hit this
    // until the first invalidation; GC simply stands down until then.
    if (best_valid == pages_per_block) return;

    // Relocate valid pages, then erase.
    relocate_block(victim);
    log_.erase(victim);
    blocks_[victim] = Block{};
    bit_clear(full_bits_, victim);
    bit_set(free_bits_, victim);
    ++free_count_;
    ++stats_.erases;
    stats_.free_pages += pages_per_block;  // the erase frees the whole block
  }
}

FtlCrash Ftl::power_loss() {
  ISP_CHECK(config_.journal.enabled,
            "power_loss() requires journal mode (FtlJournalConfig::enabled)");
  ISP_CHECK(mounted_, "device already crashed");
  // Everything volatile is gone: the maps, the block bookkeeping and the
  // buffered journal tail.  The log's durable state (OOB stamps, block
  // headers, journal pages, checkpoint) and the bad-block table survive.
  const FtlCrash crash = log_.lose_tail();
  l2p_.clear();
  p2l_.clear();
  for (auto& b : blocks_) b = Block{};
  bits_clear_all(free_bits_);
  bits_clear_all(full_bits_);
  bits_clear_all(valid_bits_);
  mapped_count_ = 0;
  free_count_ = 0;
  mounted_ = false;
  return crash;
}

FtlRecovery Ftl::recover() {
  ISP_CHECK(config_.journal.enabled, "recover() requires journal mode");
  ISP_CHECK(!mounted_, "recover() on a mounted FTL");
  const auto pages_per_block = config_.geometry.pages_per_block;
  FtlRecovery rec = log_.replay(l2p_);

  // Rebuild the volatile state.  Programs land strictly prefix-ordered, so
  // each block's append pointer is its durable programmed-prefix header.
  for (std::uint64_t b = 0; b < blocks_.size(); ++b) {
    blocks_[b].next_free_page =
        retired_[b] ? pages_per_block : log_.programmed(b);
    blocks_[b].is_free = !retired_[b] && blocks_[b].next_free_page == 0;
  }
  for (Lpn lpn = 0; lpn < logical_pages_; ++lpn) {
    const Ppn ppn = l2p_[lpn];
    if (ppn == kNoPage) continue;
    p2l_.set(ppn, lpn);
    bit_set(valid_bits_, ppn);
    ++blocks_[page_block(ppn)].valid;
    ++mapped_count_;
  }
  rec.mappings_recovered = mapped_count_;

  // Re-open the partially written blocks as the append points so they are
  // not stranded (GC only reclaims full blocks).  Normal operation leaves
  // at most two (host + GC append); compact any extras away.
  std::vector<std::uint64_t> partial;
  for (std::uint64_t b = 0; b < blocks_.size(); ++b) {
    if (blocks_[b].is_free) {
      bit_set(free_bits_, b);
      ++free_count_;
    } else if (retired_[b]) {
      continue;
    } else if (blocks_[b].next_free_page == pages_per_block) {
      bit_set(full_bits_, b);
    } else {
      partial.push_back(b);
    }
  }
  mounted_ = true;
  active_block_ = partial.size() >= 1 ? partial[0] : allocate_free_block();
  gc_active_block_ = partial.size() >= 2 ? partial[1] : allocate_free_block();
  for (std::size_t i = 2; i < partial.size(); ++i) {
    const std::uint64_t b = partial[i];
    relocate_block(b);
    log_.erase(b);
    blocks_[b] = Block{};
    bit_set(free_bits_, b);
    ++free_count_;
    ++stats_.erases;
  }

  stats_.free_pages = 0;
  for (std::uint64_t b = 0; b < blocks_.size(); ++b) {
    if (!retired_[b]) {
      stats_.free_pages += pages_per_block - blocks_[b].next_free_page;
    }
  }
  ++stats_.recoveries;
  // The remount contract: every invariant holds before the first IO.  The
  // check is incremental (O(blocks) summaries + the dirty extent); the
  // property suite runs the exhaustive sweep after every remount too.
  check_invariants_incremental();
  return rec;
}

double Ftl::gc_pressure() const {
  const double host = static_cast<double>(stats_.host_writes);
  const double internal =
      static_cast<double>(stats_.gc_writes + stats_.meta_writes);
  if (host + internal == 0.0) return 0.0;
  return internal / (host + internal);
}

void Ftl::check_invariants() const {
  // The summary pass covers per-block counts, the bit indexes, the block
  // partition and the dirty blocks' pages; the sweep below covers every
  // other page.
  check_invariants_incremental();

  // l2p / p2l are mutually consistent bijections on their valid domain.
  std::uint64_t mapped = 0;
  for (Lpn lpn = 0; lpn < logical_pages_; ++lpn) {
    if (const Ppn ppn = l2p_[lpn]; ppn != kNoPage) {
      ISP_CHECK(ppn < p2l_.size(), "ppn out of range");
      ISP_CHECK(p2l_[ppn] == lpn, "reverse map disagrees for lpn " << lpn);
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

  // The durable block headers match the stamps on every block.
  for (std::uint64_t b = 0; b < blocks_.size(); ++b) log_.check_unit(b);
}

void Ftl::check_invariants_incremental() const {
  ISP_CHECK(mounted_, "invariants undefined on an unmounted FTL");
  const auto pages_per_block = config_.geometry.pages_per_block;

  // O(blocks) summary pass: per-block valid counts against the valid-page
  // bitmap (a popcount each), the free/full bit indexes against the block
  // structs, the block partition, and the exported gauges.
  std::uint64_t mapped = 0;
  std::uint32_t free_seen = 0;
  std::uint32_t retired_seen = 0;
  std::uint64_t free_pages = 0;
  for (std::uint64_t b = 0; b < blocks_.size(); ++b) {
    const Ppn first = block_first_page(b);
    const auto valid = static_cast<std::uint32_t>(
        bits_count(valid_bits_, first, first + pages_per_block));
    ISP_CHECK(valid == blocks_[b].valid,
              "block " << b << " valid-count mismatch");
    mapped += valid;
    ISP_CHECK(blocks_[b].next_free_page <= pages_per_block,
              "append pointer past block end");
    ISP_CHECK(bit_test(free_bits_, b) == blocks_[b].is_free,
              "free-block bitset drift at block " << b);
    ISP_CHECK(bit_test(full_bits_, b) ==
                  (!blocks_[b].is_free && !retired_[b] &&
                   blocks_[b].next_free_page == pages_per_block),
              "full-block bitset drift at block " << b);
    if (retired_[b]) {
      ISP_CHECK(!blocks_[b].is_free, "retired block in the free pool");
      ISP_CHECK(valid == 0, "retired block holds valid pages");
      ++retired_seen;
      continue;
    }
    if (blocks_[b].is_free) {
      ISP_CHECK(valid == 0, "free block contains valid pages");
      ISP_CHECK(blocks_[b].next_free_page == 0, "free block partially written");
      ++free_seen;
    }
    free_pages += pages_per_block - blocks_[b].next_free_page;
  }
  ISP_CHECK(mapped == mapped_count_, "mapped-count bookkeeping mismatch");
  ISP_CHECK(free_seen == free_count_, "free-count bookkeeping mismatch");
  ISP_CHECK(retired_seen == retired_count_,
            "retired-count bookkeeping mismatch");
  ISP_CHECK(free_seen + retired_seen <= blocks_.size(),
            "block partition overflow");
  ISP_CHECK(free_pages == stats_.free_pages,
            "free-page gauge drifted: " << stats_.free_pages << " != "
                                        << free_pages);

  // Deep per-page checks only on the dirty extent: blocks touched since the
  // last checkpoint fold.  The clean extent is covered by the summary pass
  // above and, when configured, by the exhaustive sweep.
  bits_for_each(log_.dirty(), 0, blocks_.size(), [&](std::uint64_t b) {
    const Ppn first = block_first_page(b);
    for (std::uint32_t p = 0; p < pages_per_block; ++p) {
      const Ppn ppn = first + p;
      ISP_CHECK(bit_test(valid_bits_, ppn) == (p2l_[ppn] != kNoPage),
                "valid-page bitmap drift at ppn " << ppn);
      if (const Lpn lpn = p2l_[ppn]; lpn != kNoPage) {
        ISP_CHECK(l2p_[lpn] == ppn, "reverse map disagrees for lpn " << lpn);
      }
    }
    log_.check_unit(b);
  });
}

}  // namespace isp::flash
