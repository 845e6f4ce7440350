// One storage test oracle for both backends (FTL and ZNS).
//
// Extent I/O is the only I/O, so the oracle checks it two ways:
//   * span vs one-page spans: a device driven with each extent whole must
//     match a twin driven with the same extent split into one-page extents
//     (state, stats, journal tail and, across a power cut, the crash and
//     recovery counters), through reclaim churn and remounts;
//   * a map model that shares no backend code: the last write wins, trims
//     unmap, and translate, read_span and the mapped count agree with it.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "flash/backend.hpp"
#include "flash/ftl.hpp"
#include "zns/zns.hpp"

namespace isp::storage_oracle {

using flash::Lpn;
using flash::Ppn;

struct SpanOp {
  bool is_trim = false;
  Lpn first = 0;
  std::uint64_t count = 0;
};

/// `n` random extents of 1-24 pages; `trim_share` of them trims.
inline std::vector<SpanOp> random_span_ops(std::uint64_t seed,
                                           std::uint64_t logical, int n,
                                           double trim_share) {
  Rng rng(seed);
  std::vector<SpanOp> ops;
  ops.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    SpanOp op;
    op.first = rng.uniform_u64(0, logical - 1);
    op.count =
        rng.uniform_u64(1, std::min<std::uint64_t>(24, logical - op.first));
    op.is_trim = rng.next_double() < trim_share;
    ops.push_back(op);
  }
  return ops;
}

/// The op as one extent.
inline void apply_span(flash::StorageBackend& dev, const SpanOp& op) {
  if (op.is_trim) {
    dev.trim_span(op.first, op.count);
  } else {
    dev.write_span(op.first, op.count);
  }
}

/// The op split into one-page extents.
inline void apply_pages(flash::StorageBackend& dev, const SpanOp& op) {
  for (std::uint64_t i = 0; i < op.count; ++i) {
    apply_span(dev, SpanOp{op.is_trim, op.first + i, 1});
  }
}

// ---- Backend-specific state, compared field by field ----------------------

inline void expect_same_backend_state(const flash::Ftl& a,
                                      const flash::Ftl& b) {
  const flash::FtlStats x = a.stats();
  const flash::FtlStats y = b.stats();
  EXPECT_EQ(x.host_writes, y.host_writes);
  EXPECT_EQ(x.gc_writes, y.gc_writes);
  EXPECT_EQ(x.meta_writes, y.meta_writes);
  EXPECT_EQ(x.erases, y.erases);
  EXPECT_EQ(x.gc_invocations, y.gc_invocations);
  EXPECT_EQ(x.checkpoint_folds, y.checkpoint_folds);
  EXPECT_EQ(x.blocks_retired, y.blocks_retired);
  EXPECT_EQ(x.recoveries, y.recoveries);
  EXPECT_EQ(x.free_pages, y.free_pages);
  EXPECT_EQ(a.free_blocks(), b.free_blocks());
  EXPECT_EQ(a.journal_tail_updates(), b.journal_tail_updates());
}

inline void expect_same_backend_state(const zns::ZnsDevice& a,
                                      const zns::ZnsDevice& b) {
  for (std::uint64_t z = 0; z < a.zone_count(); ++z) {
    EXPECT_EQ(a.zone_state(z), b.zone_state(z)) << "zone " << z;
    EXPECT_EQ(a.write_pointer(z), b.write_pointer(z)) << "zone " << z;
    EXPECT_EQ(a.live_pages(z), b.live_pages(z)) << "zone " << z;
  }
  const zns::ZnsStats x = a.stats();
  const zns::ZnsStats y = b.stats();
  EXPECT_EQ(x.host_appends, y.host_appends);
  EXPECT_EQ(x.reclaim_copies, y.reclaim_copies);
  EXPECT_EQ(x.meta_appends, y.meta_appends);
  EXPECT_EQ(x.zone_resets, y.zone_resets);
  EXPECT_EQ(x.erases, y.erases);
  EXPECT_EQ(x.reclaim_invocations, y.reclaim_invocations);
  EXPECT_EQ(x.checkpoint_folds, y.checkpoint_folds);
  EXPECT_EQ(x.implicit_closes, y.implicit_closes);
  EXPECT_EQ(x.zones_retired, y.zones_retired);
  EXPECT_EQ(x.recoveries, y.recoveries);
  EXPECT_EQ(a.open_zones(), b.open_zones());
  EXPECT_EQ(a.free_zones(), b.free_zones());
  EXPECT_EQ(a.journal_tail_updates(), b.journal_tail_updates());
}

/// Same mapping, same backend state and stats, both devices consistent.
template <typename Device>
void expect_identical(const Device& a, const Device& b) {
  ASSERT_EQ(a.logical_pages(), b.logical_pages());
  for (Lpn lpn = 0; lpn < a.logical_pages(); ++lpn) {
    ASSERT_EQ(a.translate(lpn), b.translate(lpn))
        << "mapping diverged at lpn " << lpn;
  }
  expect_same_backend_state(a, b);
  EXPECT_DOUBLE_EQ(a.write_amplification(), b.write_amplification());
  a.check_invariants();
  b.check_invariants();
  a.check_invariants_incremental();
  b.check_invariants_incremental();
}

/// Mixed write/trim extents through steady-state reclaim: enough churn
/// that the whole-extent path crosses the watermark, where reclaim runs
/// page by page (invocations must match exactly, stand-downs included).
template <typename Device, typename Config>
void expect_spans_match_pages(const Config& config, std::uint64_t seed) {
  Device spans(config);
  Device pages(config);
  const auto ops = random_span_ops(seed, spans.logical_pages(), 400, 0.15);
  for (const auto& op : ops) {
    apply_span(spans, op);
    apply_pages(pages, op);
  }
  EXPECT_GT(spans.counters().reclaim_events, 0u)
      << "workload too light to exercise the watermark";
  expect_identical(spans, pages);
}

/// A power cut at 50 points of an extent workload: at every point the
/// whole-extent device and its one-page twin lose the same tail, recover
/// the same way, and finish the workload identical.
template <typename Device, typename Config>
void expect_crash_sweep_matches_pages(const Config& config) {
  constexpr int kPoints = 50;
  std::vector<SpanOp> ops;
  {
    const Device probe(config);
    ops = random_span_ops(0xfeedULL, probe.logical_pages(), 120, 0.1);
  }
  for (int point = 0; point < kPoints; ++point) {
    const std::size_t crash_after = 2 + static_cast<std::size_t>(point) * 2;
    ASSERT_LT(crash_after, ops.size());
    Device spans(config);
    Device pages(config);
    for (std::size_t i = 0; i < crash_after; ++i) {
      apply_span(spans, ops[i]);
      apply_pages(pages, ops[i]);
    }
    const auto crash_a = spans.power_loss();
    const auto crash_b = pages.power_loss();
    EXPECT_EQ(crash_a.lost_tail_updates, crash_b.lost_tail_updates);
    EXPECT_EQ(crash_a.lost_trims, crash_b.lost_trims);
    const auto rec_a = spans.recover();
    const auto rec_b = pages.recover();
    EXPECT_EQ(rec_a.checkpoint_pages_read, rec_b.checkpoint_pages_read);
    EXPECT_EQ(rec_a.journal_pages_read, rec_b.journal_pages_read);
    EXPECT_EQ(rec_a.journal_entries_replayed, rec_b.journal_entries_replayed);
    EXPECT_EQ(rec_a.blocks_scanned, rec_b.blocks_scanned);
    EXPECT_EQ(rec_a.pages_scanned, rec_b.pages_scanned);
    EXPECT_EQ(rec_a.mappings_recovered, rec_b.mappings_recovered);
    EXPECT_EQ(rec_a.tail_updates_rescued, rec_b.tail_updates_rescued);
    EXPECT_EQ(rec_a.stale_mappings_dropped, rec_b.stale_mappings_dropped);
    for (std::size_t i = crash_after; i < ops.size(); ++i) {
      apply_span(spans, ops[i]);
      apply_pages(pages, ops[i]);
    }
    expect_identical(spans, pages);
  }
}

/// recover() runs the incremental remount check; the exhaustive sweep must
/// agree with it: both pass on the device at every remount.
template <typename Device, typename Config>
void expect_remount_checks_agree(const Config& config) {
  Device dev(config);
  const auto ops = random_span_ops(0xabcdULL, dev.logical_pages(), 150, 0.2);
  std::size_t cursor = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (std::size_t i = 0; i < 40; ++i, ++cursor) {
      apply_span(dev, ops[cursor % ops.size()]);
    }
    dev.power_loss();
    const auto rec = dev.recover();
    EXPECT_GT(rec.mappings_recovered, 0u);
    dev.check_invariants();
    dev.check_invariants_incremental();
  }
}

// ---- The map model ----------------------------------------------------------

/// Which logical pages are mapped, from the op stream alone.
class MapModel {
 public:
  explicit MapModel(std::uint64_t logical_pages)
      : mapped_(logical_pages, 0) {}

  void apply(const SpanOp& op) {
    for (Lpn lpn = op.first; lpn < op.first + op.count; ++lpn) {
      mapped_[lpn] = op.is_trim ? 0 : 1;
    }
    if (!op.is_trim) host_pages_ += op.count;
  }

  /// The device agrees with the model on every page, its extent reads
  /// agree with its page reads, and no two pages share a physical page.
  void expect_matches(const flash::StorageBackend& dev,
                      const SpanOp& last) const {
    const std::uint64_t n = mapped_.size();
    ASSERT_EQ(dev.logical_pages(), n);
    std::vector<Ppn> expected;
    for (Lpn lpn = 0; lpn < n; ++lpn) {
      const auto ppn = dev.translate(lpn);
      ASSERT_EQ(ppn.has_value(), mapped_[lpn] != 0) << "lpn " << lpn;
      if (ppn) expected.push_back(*ppn);
    }
    std::vector<Ppn> ppns;
    EXPECT_EQ(dev.read_span(0, n, &ppns), expected.size());
    EXPECT_EQ(ppns, expected);
    EXPECT_EQ(dev.read_span(0, n, nullptr), expected.size());
    EXPECT_EQ(std::set<Ppn>(ppns.begin(), ppns.end()).size(), ppns.size())
        << "two logical pages share a physical page";
    const auto in_last = static_cast<std::uint64_t>(
        std::count(mapped_.begin() + static_cast<std::ptrdiff_t>(last.first),
                   mapped_.begin() +
                       static_cast<std::ptrdiff_t>(last.first + last.count),
                   1));
    EXPECT_EQ(dev.read_span(last.first, last.count, nullptr), in_last);
    EXPECT_EQ(dev.counters().host_pages, host_pages_);
  }

 private:
  std::vector<char> mapped_;
  std::uint64_t host_pages_ = 0;
};

/// Drive `dev` with a random extent stream through reclaim, checking it
/// against the model after every op.
inline void expect_matches_map_model(flash::StorageBackend& dev,
                                     std::uint64_t seed) {
  MapModel model(dev.logical_pages());
  const auto ops = random_span_ops(seed, dev.logical_pages(), 300, 0.3);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    apply_span(dev, ops[i]);
    model.apply(ops[i]);
    model.expect_matches(dev, ops[i]);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(dev.counters().reclaim_events, 0u);
}

}  // namespace isp::storage_oracle
