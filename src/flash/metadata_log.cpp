#include "flash/metadata_log.hpp"

#include <algorithm>

#include "common/bitset.hpp"
#include "common/error.hpp"

namespace isp::flash {

void MetadataLog::check_config(const JournalConfig& config,
                               const NandGeometry& geometry) {
  if (!config.enabled) return;
  ISP_CHECK(config.entry_bytes > 0 && config.checkpoint_entry_bytes > 0,
            "journal entries need a size");
  ISP_CHECK(config.checkpoint_interval_pages >= 1,
            "checkpoint interval must be at least one journal page");
  ISP_CHECK(geometry.page_bytes.count() / config.entry_bytes >= 1,
            "journal entry larger than a flash page");
  ISP_CHECK(geometry.total_pages() < kTrimRecord,
            "journal records address at most 2^32 - 1 pages");
}

MetadataLog::MetadataLog(const JournalConfig& config,
                         const NandGeometry& geometry,
                         std::uint64_t logical_pages, std::uint64_t units,
                         std::uint32_t unit_pages, bool journal_programs)
    : config_(config),
      page_bytes_(geometry.page_bytes.count()),
      pages_per_block_(geometry.pages_per_block),
      unit_pages_(unit_pages),
      journal_programs_(journal_programs) {
  check_config(config_, geometry);
  max_seq_.assign(units, 0);
  programmed_.assign(units, 0);
  bits_resize(dirty_, units);
  if (!config_.enabled) return;
  entries_per_page_ =
      static_cast<std::uint32_t>(page_bytes_ / config_.entry_bytes);
  media_ = PageMap<Oob>(units * unit_pages_);
  checkpoint_ = PageMap<Ppn>(logical_pages);
  // The buffers cycle at fixed sizes: one page of records in the open
  // journal page, at most checkpoint_interval_pages of durable records
  // before a fold clears them.  Reserve once instead of regrowing on the
  // hot write path.
  buffer_.reserve(entries_per_page_);
  journal_.reserve(fold_entries());
}

template <typename LpnAt>
std::uint64_t MetadataLog::stamp_run(std::uint64_t unit, Ppn first,
                                     std::uint64_t count, LpnAt lpn_at) {
  ISP_DCHECK(count > 0, "empty program run");
  ISP_DCHECK(count <= run_room(), "program run crosses its room");
  const std::uint64_t seq0 = seq_;
  seq_ += count;
  // Programs land at a unit's append point in sequence order, so the run's
  // last stamp is the unit's max and its page ends the programmed prefix.
  max_seq_[unit] = seq_;
  programmed_[unit] =
      static_cast<std::uint32_t>(first + count - unit * unit_pages_);
  bit_set(dirty_, unit);
  if (!config_.enabled) return 0;
  Record* records = nullptr;
  if (journal_programs_) {
    records = reserve_records(count);
  } else {
    programs_since_fold_ += count;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const Lpn lpn = lpn_at(i);
    const std::uint64_t seq = seq0 + i + 1;
    media_.set(first + i, Oob{lpn, seq});
    if (records != nullptr) {
      records[i] = Record{static_cast<std::uint32_t>(lpn),
                          static_cast<std::uint32_t>(first + i), seq};
    }
  }
  return records != nullptr ? program_page_if_full() : 0;
}

std::uint64_t MetadataLog::program_run(std::uint64_t unit, Ppn first, Lpn lpn,
                                       std::uint64_t count) {
  return stamp_run(unit, first, count,
                   [lpn](std::uint64_t i) { return lpn + i; });
}

std::uint64_t MetadataLog::program_run(std::uint64_t unit, Ppn first,
                                       const Lpn* lpns, std::uint64_t count) {
  return stamp_run(unit, first, count,
                   [lpns](std::uint64_t i) { return lpns[i]; });
}

std::uint64_t MetadataLog::trim_run(const Lpn* lpns, std::uint64_t count) {
  const std::uint64_t seq0 = seq_;
  seq_ += count;
  if (!config_.enabled) return 0;
  ISP_DCHECK(count <= record_room(), "trim run crosses a journal page");
  Record* records = reserve_records(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    records[i] = Record{static_cast<std::uint32_t>(lpns[i]), kTrimRecord,
                        seq0 + i + 1};
  }
  return program_page_if_full();
}

MetadataLog::Record* MetadataLog::reserve_records(std::uint64_t count) {
  const std::size_t base = buffer_.size();
  buffer_.resize(base + count);
  return buffer_.data() + base;
}

std::uint64_t MetadataLog::program_page_if_full() {
  if (buffer_.size() < entries_per_page_) return 0;
  // The open journal page filled: program it.  Its records become durable.
  journal_.insert(journal_.end(), buffer_.begin(), buffer_.end());
  // With programs journaled every update so far is now on media; without,
  // appends since the fold are in no record and the checkpoint stays the
  // durable horizon.
  if (journal_programs_) durable_seq_ = buffer_.back().seq;
  buffer_.clear();
  ++journal_pages_since_fold_;
  ++meta_pages_live_;
  return 1;
}

void MetadataLog::erase(std::uint64_t unit) {
  if (!media_.empty()) media_.clear(unit * unit_pages_, programmed_[unit]);
  max_seq_[unit] = 0;
  programmed_[unit] = 0;
  bit_set(dirty_, unit);
}

bool MetadataLog::fold_due() const {
  return config_.enabled &&
         (journal_pages_since_fold_ >= config_.checkpoint_interval_pages ||
          programs_since_fold_ >= fold_entries());
}

MetaIo MetadataLog::fold(const PageMap<Ppn>& map, std::uint64_t mapped) {
  // Snapshot the whole map; the old checkpoint + journal region is then
  // recycled (erased) and a fresh journal starts empty.  Buffered records
  // are superseded by the snapshot.
  checkpoint_.copy_from(map);
  checkpoint_seq_ = seq_;
  checkpoint_pages_ = std::max<std::uint64_t>(
      1,  // map header page
      (mapped * config_.checkpoint_entry_bytes + page_bytes_ - 1) /
          page_bytes_);
  const MetaIo io{
      .pages = checkpoint_pages_,
      .erases = (meta_pages_live_ + pages_per_block_ - 1) / pages_per_block_};
  meta_pages_live_ = checkpoint_pages_;
  journal_.clear();
  buffer_.clear();
  journal_pages_since_fold_ = 0;
  programs_since_fold_ = 0;
  durable_seq_ = checkpoint_seq_;
  held_horizon_ = ~std::uint64_t{0};
  // The checkpoint now covers everything: the dirty extent (the scope of
  // incremental remount verification) restarts empty.
  bits_clear_all(dirty_);
  return io;
}

StorageCrash MetadataLog::lose_tail() {
  StorageCrash crash;
  crash.lost_tail_updates = buffer_.size();
  for (const Record& r : buffer_) {
    if (r.ppn == kTrimRecord) ++crash.lost_trims;
  }
  buffer_.clear();
  return crash;
}

StorageRecovery MetadataLog::replay_records(PageMap<Ppn>& map) {
  StorageRecovery rec;
  const std::uint64_t horizon = std::min(durable_seq_, held_horizon_);

  // 1. Checkpoint.  An unmapped entry is stamped with the fold sequence
  //    too: the lpn held nothing then.
  map.copy_from(checkpoint_);
  replay_seq_.assign(map.size(), checkpoint_seq_);
  rec.checkpoint_pages_read = checkpoint_pages_;

  // 2. Durable journal, in sequence order.
  for (const Record& r : journal_) {
    map.set(r.lpn, r.ppn == kTrimRecord ? kNoPage : r.ppn);
    replay_seq_[r.lpn] = r.seq;
  }
  rec.journal_entries_replayed = journal_.size();
  rec.journal_pages_read =
      (journal_.size() + entries_per_page_ - 1) / entries_per_page_;

  // 3. OOB scan.  A unit header's max sequence answers "any stamp above
  //    the horizon?" in O(1) (it is cleared on erase), so only those units
  //    are read.  Unprogrammed pages stamp seq 0 and never pass.
  for (std::uint64_t unit = 0; unit < max_seq_.size(); ++unit) {
    if (max_seq_[unit] <= horizon) continue;
    ++rec.blocks_scanned;
    rec.pages_scanned += unit_pages_;
    const Ppn first = unit * unit_pages_;
    for (Ppn ppn = first; ppn < first + unit_pages_; ++ppn) {
      const Oob oob = media_[ppn];
      if (oob.seq <= horizon || oob.seq <= replay_seq_[oob.lpn]) continue;
      map.set(oob.lpn, ppn);
      replay_seq_[oob.lpn] = oob.seq;
      ++rec.tail_updates_rescued;
    }
  }

  // Rescued pages are in no durable record until the next fold: hold the
  // horizon so a second cut scans them again.
  if (rec.tail_updates_rescued > 0) held_horizon_ = horizon;
  return rec;
}

void MetadataLog::check_unit(std::uint64_t unit) const {
  if (media_.empty()) return;
  const Ppn first = unit * unit_pages_;
  std::uint64_t max_seq = 0;
  for (std::uint32_t p = 0; p < unit_pages_; ++p) {
    const Oob oob = media_[first + p];
    ISP_CHECK((oob.lpn != kNoPage) == (p < programmed_[unit]),
              "unit " << unit << " programmed pages are not a prefix");
    max_seq = std::max(max_seq, oob.seq);
  }
  ISP_CHECK(max_seq_[unit] == max_seq,
            "unit " << unit << " max-seq header drift");
}

}  // namespace isp::flash
