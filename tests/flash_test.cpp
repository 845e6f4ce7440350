// Unit + property tests: NAND timing, the flash array, and the FTL.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "flash/flash_array.hpp"
#include "flash/ftl.hpp"
#include "flash/metadata_log.hpp"
#include "flash/nand.hpp"
#include "flash/page_map.hpp"
#include "obs/metrics.hpp"

namespace isp::flash {
namespace {

TEST(Nand, DefaultGeometryMatchesPaperBandwidth) {
  // §IV-A: 9 GB/s effective internal read bandwidth.
  const auto bw = effective_read_bandwidth(NandGeometry{}, NandTiming{});
  EXPECT_NEAR(bw.value() / 1e9, 9.0, 0.3);
}

TEST(Nand, WriteBandwidthBelowRead) {
  const auto read = effective_read_bandwidth(NandGeometry{}, NandTiming{});
  const auto write = effective_write_bandwidth(NandGeometry{}, NandTiming{});
  EXPECT_LT(write.value(), read.value());
  EXPECT_GT(write.value(), 0.0);
}

TEST(Nand, ChannelCeilingBinds) {
  NandGeometry g;
  g.channels = 1;  // single channel: 1.2 GB/s ceiling
  const auto bw = effective_read_bandwidth(g, NandTiming{});
  EXPECT_NEAR(bw.value() / 1e9, 1.2, 0.2);
}

TEST(FlashArray, BulkReadTime) {
  FlashArray array;
  // 6.9 GB at ~9 GB/s -> ~0.77 s.
  const Seconds t = array.read_seconds(gigabytes(6.9));
  EXPECT_NEAR(t.value(), 0.77, 0.05);
  EXPECT_DOUBLE_EQ(array.read_seconds(Bytes{0}).value(), 0.0);
}

TEST(FlashArray, AvailabilityDeratesReads) {
  FlashArray array;
  array.set_availability(sim::AvailabilitySchedule::constant(0.5));
  const SimTime done = array.read_finish(SimTime{0.0}, gigabytes(6.9));
  EXPECT_NEAR(done.seconds(), 2.0 * 0.77, 0.1);
}

TEST(FlashArray, StatsAccumulate) {
  FlashArray array;
  array.note_read(Bytes{100});
  array.note_write(Bytes{50});
  EXPECT_EQ(array.bytes_read().count(), 100u);
  EXPECT_EQ(array.bytes_written().count(), 50u);
  array.reset_stats();
  EXPECT_EQ(array.bytes_read().count(), 0u);
}

FtlConfig small_ftl() {
  FtlConfig config;
  config.geometry.channels = 1;
  config.geometry.dies_per_channel = 1;
  config.geometry.planes_per_die = 1;
  config.geometry.blocks_per_die = 24;
  config.geometry.pages_per_block = 8;
  config.overprovision = 0.3;
  return config;
}

TEST(Ftl, TranslateAfterWrite) {
  Ftl ftl(small_ftl());
  EXPECT_FALSE(ftl.translate(0).has_value());
  ftl.write(0);
  ASSERT_TRUE(ftl.translate(0).has_value());
  ftl.check_invariants();
}

TEST(Ftl, OverwriteMovesPage) {
  Ftl ftl(small_ftl());
  ftl.write(3);
  const auto first = ftl.translate(3);
  ftl.write(3);
  const auto second = ftl.translate(3);
  ASSERT_TRUE(first && second);
  EXPECT_NE(*first, *second);
  ftl.check_invariants();
}

TEST(Ftl, TrimDropsMapping) {
  Ftl ftl(small_ftl());
  ftl.write(5);
  ftl.trim(5);
  EXPECT_FALSE(ftl.translate(5).has_value());
  ftl.check_invariants();
  // Trim of an unwritten page is a no-op.
  EXPECT_NO_THROW(ftl.trim(6));
}

TEST(Ftl, RejectsOutOfRange) {
  Ftl ftl(small_ftl());
  EXPECT_THROW(ftl.write(ftl.logical_pages()), Error);
  EXPECT_THROW(static_cast<void>(ftl.translate(ftl.logical_pages())),
               Error);
}

TEST(Ftl, OverprovisionHidesCapacity) {
  const Ftl ftl(small_ftl());
  const auto physical = small_ftl().geometry.total_pages();
  EXPECT_LT(ftl.logical_pages(), physical);
  EXPECT_GT(ftl.logical_pages(), physical / 2);
}

TEST(Ftl, RejectsInfeasibleWatermarks) {
  FtlConfig config = small_ftl();
  config.overprovision = 0.01;  // logical blocks leave no room for GC
  EXPECT_THROW(Ftl{config}, Error);
}

TEST(Ftl, SequentialFillNeverStarves) {
  Ftl ftl(small_ftl());
  for (Lpn lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    ftl.write(lpn);
  }
  ftl.check_invariants();
  // Every page still resolves.
  for (Lpn lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    EXPECT_TRUE(ftl.translate(lpn).has_value());
  }
}

TEST(Ftl, SteadyStateOverwriteTriggersGc) {
  Ftl ftl(small_ftl());
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    ftl.write(rng.uniform_u64(0, ftl.logical_pages() - 1));
  }
  EXPECT_GT(ftl.stats().gc_invocations, 0u);
  EXPECT_GT(ftl.stats().erases, 0u);
  EXPECT_GE(ftl.stats().write_amplification(), 1.0);
  EXPECT_GE(ftl.gc_pressure(), 0.0);
  EXPECT_LT(ftl.gc_pressure(), 1.0);
  ftl.check_invariants();
}

// Lower overprovisioning leaves headroom to retire several blocks: the
// feasibility check keeps logical + spare + watermark + retired <= total.
FtlConfig retirable_ftl() {
  FtlConfig config = small_ftl();
  config.overprovision = 0.5;
  return config;
}

TEST(FtlRetire, RetiredBlockRelocatesValidPagesAndStaysExcluded) {
  Ftl ftl(retirable_ftl());
  for (Lpn lpn = 0; lpn < ftl.logical_pages(); ++lpn) ftl.write(lpn);

  // Retire the block holding lpn 0's page: the mapping must survive on a
  // different block, and the accounting must partition exactly.
  const Ppn victim_ppn = *ftl.translate(0);
  const auto victim_block =
      victim_ppn / retirable_ftl().geometry.pages_per_block;
  const auto free_before = ftl.free_blocks();
  ftl.retire_block(victim_block);

  EXPECT_EQ(ftl.retired_blocks(), 1u);
  EXPECT_EQ(ftl.stats().blocks_retired, 1u);
  ASSERT_TRUE(ftl.translate(0).has_value());
  EXPECT_NE(*ftl.translate(0) / retirable_ftl().geometry.pages_per_block,
            victim_block);
  ftl.check_invariants();
  // Retiring again is a no-op.
  ftl.retire_block(victim_block);
  EXPECT_EQ(ftl.retired_blocks(), 1u);
  // A retired block never rejoins the free pool, so at equal load the pool
  // can only have shrunk.
  EXPECT_LE(ftl.free_blocks(), free_before);
}

TEST(FtlRetire, RefusesToRetireBelowFeasibility) {
  Ftl ftl(retirable_ftl());
  std::uint64_t retired = 0;
  std::uint64_t block = 0;
  // Retire until the feasibility guard trips; it must trip before the FTL
  // could deadlock, and every successful retirement keeps the invariants.
  try {
    for (;; ++block) {
      ftl.retire_block(block);
      ++retired;
      ftl.check_invariants();
    }
  } catch (const Error&) {
  }
  EXPECT_GT(retired, 0u);
  EXPECT_EQ(ftl.retired_blocks(), retired);
  EXPECT_LT(retired, ftl.total_blocks());
  ftl.check_invariants();
  // The survivor set still absorbs a full logical overwrite pass.
  for (Lpn lpn = 0; lpn < ftl.logical_pages(); ++lpn) ftl.write(lpn);
  ftl.check_invariants();
}

// Property: block retirement interleaved with GC-inducing churn.  The GC
// victim scan must skip retired blocks, relocation must never target one,
// and free + in-use + retired must partition the block set throughout.
class FtlRetireChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FtlRetireChurn, InvariantsUnderChurnWithRetirement) {
  Ftl ftl(retirable_ftl());
  Rng rng(GetParam());
  std::uint64_t next_retire = 0;
  for (int i = 0; i < 3000; ++i) {
    const Lpn lpn = rng.uniform_u64(0, ftl.logical_pages() - 1);
    if (rng.next_double() < 0.85) {
      ftl.write(lpn);
    } else {
      ftl.trim(lpn);
    }
    // Every ~700 ops retire another block — mid-churn, so GC is typically
    // between victims when the block disappears from its candidate set.
    if (i % 700 == 350 && ftl.retired_blocks() < 3) {
      ftl.retire_block(next_retire);
      next_retire += 5;  // spread across the array
      ftl.check_invariants();
    }
  }
  EXPECT_EQ(ftl.retired_blocks(), 3u);
  EXPECT_GT(ftl.stats().gc_invocations, 0u)
      << "churn too light to exercise GC against retirement";
  ftl.check_invariants();

  std::set<Ppn> seen;
  const auto ppb = retirable_ftl().geometry.pages_per_block;
  for (Lpn lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    if (const auto ppn = ftl.translate(lpn)) {
      EXPECT_TRUE(seen.insert(*ppn).second);
      // No live page may sit on a retired block.
      EXPECT_NE(*ppn / ppb, 0u);
      EXPECT_NE(*ppn / ppb, 5u);
      EXPECT_NE(*ppn / ppb, 10u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlRetireChurn,
                         ::testing::Values(7, 29, 59, 83));

// Property: invariants hold after arbitrary interleavings of write/trim, and
// distinct logical pages never alias the same physical page.
class FtlChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FtlChurn, InvariantsUnderRandomOps) {
  Ftl ftl(small_ftl());
  Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    const Lpn lpn = rng.uniform_u64(0, ftl.logical_pages() - 1);
    if (rng.next_double() < 0.85) {
      ftl.write(lpn);
    } else {
      ftl.trim(lpn);
    }
  }
  ftl.check_invariants();

  std::set<Ppn> seen;
  for (Lpn lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    if (const auto ppn = ftl.translate(lpn)) {
      EXPECT_TRUE(seen.insert(*ppn).second)
          << "two logical pages share ppn " << *ppn;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlChurn,
                         ::testing::Values(11, 23, 37, 41, 53, 67, 79, 97));

// ---------------------------------------------------------------------------
// Extent (span) data plane: write_span/trim_span/read_span are contractually
// bit-for-bit the scalar loops — state, stats, journal and recovery all
// identical — so every test here drives a scalar twin and a span twin with
// the same operation list and demands exact equality, through GC churn and
// across crash/remount cycles.

FtlConfig journaled_small() {
  FtlConfig config = small_ftl();
  config.geometry.page_bytes = Bytes{64};  // journal pages fill in 4 entries
  config.journal.enabled = true;
  config.journal.checkpoint_interval_pages = 4;
  return config;
}

struct SpanOp {
  bool is_trim = false;
  Lpn first = 0;
  std::uint64_t count = 0;
};

std::vector<SpanOp> random_span_ops(std::uint64_t seed, std::uint64_t logical,
                                    int n, double trim_share) {
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

void apply_scalar(StorageBackend& dev, const SpanOp& op) {
  for (std::uint64_t i = 0; i < op.count; ++i) {
    if (op.is_trim) {
      dev.trim(op.first + i);
    } else {
      dev.write(op.first + i);
    }
  }
}

void apply_span(StorageBackend& dev, const SpanOp& op) {
  if (op.is_trim) {
    dev.trim_span(op.first, op.count);
  } else {
    dev.write_span(op.first, op.count);
  }
}

void expect_identical(const Ftl& scalar, const Ftl& span) {
  ASSERT_EQ(scalar.logical_pages(), span.logical_pages());
  for (Lpn lpn = 0; lpn < scalar.logical_pages(); ++lpn) {
    ASSERT_EQ(scalar.translate(lpn), span.translate(lpn))
        << "mapping diverged at lpn " << lpn;
  }
  const auto& a = scalar.stats();
  const auto& b = span.stats();
  EXPECT_EQ(a.host_writes, b.host_writes);
  EXPECT_EQ(a.gc_writes, b.gc_writes);
  EXPECT_EQ(a.meta_writes, b.meta_writes);
  EXPECT_EQ(a.erases, b.erases);
  EXPECT_EQ(a.gc_invocations, b.gc_invocations);
  EXPECT_EQ(a.checkpoint_folds, b.checkpoint_folds);
  EXPECT_EQ(a.blocks_retired, b.blocks_retired);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.free_pages, b.free_pages);
  EXPECT_DOUBLE_EQ(a.write_amplification(), b.write_amplification());
  EXPECT_EQ(scalar.free_blocks(), span.free_blocks());
  EXPECT_EQ(scalar.journal_tail_updates(), span.journal_tail_updates());
  scalar.check_invariants();
  span.check_invariants();
  scalar.check_invariants_incremental();
  span.check_invariants_incremental();
}

// Mixed write/trim extents through steady-state GC: enough churn that the
// span path crosses the watermark fallback (reclaim invocations must match
// exactly, including GC calls that stood down without reclaiming anything).
class FtlSpanDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FtlSpanDiff, SpanOpsMatchScalarOpsExactly) {
  Ftl scalar(journaled_small());
  Ftl span(journaled_small());
  const auto ops =
      random_span_ops(GetParam(), scalar.logical_pages(), 400, 0.15);
  for (const auto& op : ops) {
    apply_scalar(scalar, op);
    apply_span(span, op);
  }
  EXPECT_GT(span.stats().gc_invocations, 0u)
      << "workload too light to exercise the watermark fallback";
  expect_identical(scalar, span);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlSpanDiff,
                         ::testing::Values(5, 17, 43, 61, 89));

// The acceptance sweep on the span path: crash at >= 50 distinct points in
// a span-driven workload, remount, finish the workload — and at every point
// the span device must match a scalar twin crash-driven identically:
// recovery counters, stats and the full mapping.
TEST(FtlSpanCrash, FiftyPointSweepMatchesScalarTwin) {
  constexpr int kPoints = 50;
  std::vector<SpanOp> ops;
  {
    const Ftl probe(journaled_small());
    ops = random_span_ops(0xfeedULL, probe.logical_pages(), 120, 0.1);
  }
  for (int point = 0; point < kPoints; ++point) {
    const std::size_t crash_after = 2 + static_cast<std::size_t>(point) * 2;
    ASSERT_LT(crash_after, ops.size());
    Ftl scalar(journaled_small());
    Ftl span(journaled_small());
    for (std::size_t i = 0; i < crash_after; ++i) {
      apply_scalar(scalar, ops[i]);
      apply_span(span, ops[i]);
    }
    const auto crash_a = scalar.power_loss();
    const auto crash_b = span.power_loss();
    EXPECT_EQ(crash_a.lost_tail_updates, crash_b.lost_tail_updates);
    EXPECT_EQ(crash_a.lost_trims, crash_b.lost_trims);
    const auto rec_a = scalar.recover();
    const auto rec_b = span.recover();
    EXPECT_EQ(rec_a.checkpoint_pages_read, rec_b.checkpoint_pages_read);
    EXPECT_EQ(rec_a.journal_pages_read, rec_b.journal_pages_read);
    EXPECT_EQ(rec_a.journal_entries_replayed, rec_b.journal_entries_replayed);
    EXPECT_EQ(rec_a.blocks_scanned, rec_b.blocks_scanned);
    EXPECT_EQ(rec_a.pages_scanned, rec_b.pages_scanned);
    EXPECT_EQ(rec_a.mappings_recovered, rec_b.mappings_recovered);
    EXPECT_EQ(rec_a.tail_updates_rescued, rec_b.tail_updates_rescued);
    EXPECT_EQ(rec_a.stale_mappings_dropped, rec_b.stale_mappings_dropped);
    for (std::size_t i = crash_after; i < ops.size(); ++i) {
      apply_scalar(scalar, ops[i]);
      apply_span(span, ops[i]);
    }
    expect_identical(scalar, span);
  }
}

// recover() runs the incremental remount check; the exhaustive sweep must
// agree with it — both checkers pass on the device at every remount.
TEST(FtlSpanCrash, IncrementalAndExhaustiveRemountVerifyAgree) {
  Ftl ftl(journaled_small());
  const auto ops = random_span_ops(0xabcdULL, ftl.logical_pages(), 150, 0.2);
  std::size_t cursor = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (std::size_t i = 0; i < 40; ++i, ++cursor) {
      apply_span(ftl, ops[cursor % ops.size()]);
    }
    ftl.power_loss();
    const auto rec = ftl.recover();
    EXPECT_GT(rec.mappings_recovered, 0u);
    ftl.check_invariants();
    ftl.check_invariants_incremental();
  }
}

TEST(FtlSpan, ReadSpanMatchesTranslateLoop) {
  Ftl ftl(small_ftl());
  for (Lpn lpn = 10; lpn < 30; ++lpn) ftl.write(lpn);
  ftl.trim(15);
  ftl.trim(22);
  std::vector<Ppn> collected;
  const auto mapped = ftl.read_span(0, ftl.logical_pages(), &collected);
  std::vector<Ppn> expected;
  for (Lpn lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    if (const auto ppn = ftl.translate(lpn)) expected.push_back(*ppn);
  }
  EXPECT_EQ(mapped, expected.size());
  EXPECT_EQ(collected, expected);
  // Null sink: count only.
  EXPECT_EQ(ftl.read_span(0, ftl.logical_pages(), nullptr), mapped);
}

TEST(FtlSpan, RejectsOutOfRangeExtents) {
  Ftl ftl(small_ftl());
  EXPECT_THROW(ftl.write_span(ftl.logical_pages() - 2, 5), Error);
  EXPECT_THROW(ftl.trim_span(ftl.logical_pages(), 1), Error);
  EXPECT_THROW(
      static_cast<void>(ftl.read_span(0, ftl.logical_pages() + 1, nullptr)),
      Error);
  // Zero-length extents at the boundary are legal no-ops.
  EXPECT_NO_THROW(ftl.write_span(ftl.logical_pages(), 0));
  ftl.check_invariants();
}

// ---------------------------------------------------------------------------
// PageMap, the backends' per-page map store, on both of its storage paths:
// one entry below 2 MiB (a heap array filled at construction) and exactly
// 2 MiB (a mapping of its own whose pages fault in on first touch), for the
// map's word type and for the OOB stamp.

struct PageMapCase {
  const char* name;
  bool oob;          // PageMap<Oob>, else PageMap<Ppn>
  bool own_mapping;  // exactly 2 MiB, else one entry below
};
void PrintTo(const PageMapCase& c, std::ostream* os) { *os << c.name; }

class PageMapPaths : public ::testing::TestWithParam<PageMapCase> {};

using EntryKey = std::pair<std::uint64_t, std::uint64_t>;
constexpr EntryKey kUnmappedKey{kNoPage, 0};  // kNoPage and {kNoPage, 0}

EntryKey key(Ppn v) { return {v, 0}; }
EntryKey key(Oob v) { return {v.lpn, v.seq}; }

/// A mapped (never unmapped) value for entry i.
template <typename T>
T mapped_entry(std::uint64_t i);
template <>
Ppn mapped_entry<Ppn>(std::uint64_t i) { return 3 * i + 1; }
template <>
Oob mapped_entry<Oob>(std::uint64_t i) { return Oob{3 * i + 1, i + 1}; }

template <typename T>
void check_page_map(std::size_t size) {
  PageMap<T> map(size);
  ASSERT_EQ(map.size(), size);
  ASSERT_FALSE(map.empty());

  // Probes: both ends, both edges of the cleared range, and random indices.
  const std::size_t first = size / 4;
  const std::size_t count = size / 2;
  std::vector<std::size_t> probes{0,         size - 1,          first - 1,
                                  first,     first + count - 1, first + count};
  Rng rng(size);
  for (int i = 0; i < 64; ++i) {
    probes.push_back(static_cast<std::size_t>(rng.uniform_u64(0, size - 1)));
  }
  const auto in_cleared = [&](std::size_t i) {
    return i >= first && i < first + count;
  };

  for (const auto i : probes) EXPECT_EQ(key(map[i]), kUnmappedKey) << i;

  for (const auto i : probes) map.set(i, mapped_entry<T>(i));
  for (const auto i : probes) {
    EXPECT_EQ(key(map[i]), key(mapped_entry<T>(i))) << i;
  }

  PageMap<T> copy(size);
  copy.copy_from(map);
  for (const auto i : probes) {
    EXPECT_EQ(key(copy[i]), key(mapped_entry<T>(i))) << i;
  }

  map.clear(first, count);
  for (const auto i : probes) {
    EXPECT_EQ(key(map[i]),
              in_cleared(i) ? kUnmappedKey : key(mapped_entry<T>(i)))
        << i;
  }
  map.clear();
  for (const auto i : probes) EXPECT_EQ(key(map[i]), kUnmappedKey) << i;
  map.set(size - 1, mapped_entry<T>(size - 1));
  EXPECT_EQ(key(map[size - 1]), key(mapped_entry<T>(size - 1)));

  // The copy is independent of the source's clears.
  for (const auto i : probes) {
    EXPECT_EQ(key(copy[i]), key(mapped_entry<T>(i))) << i;
  }

  // A move leaves the source empty.
  PageMap<T> moved(std::move(copy));
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(copy.size(), 0u);
  ASSERT_EQ(moved.size(), size);
  for (const auto i : probes) {
    EXPECT_EQ(key(moved[i]), key(mapped_entry<T>(i))) << i;
  }
  PageMap<T> assigned;
  assigned = std::move(moved);
  EXPECT_TRUE(moved.empty());
  ASSERT_EQ(assigned.size(), size);
  EXPECT_EQ(key(assigned[0]), key(mapped_entry<T>(0)));
}

TEST_P(PageMapPaths, FreshSetClearCopyMove) {
  constexpr std::size_t kTwoMiB = std::size_t{2} << 20;
  const PageMapCase& c = GetParam();
  const std::size_t entry_bytes = c.oob ? sizeof(Oob) : sizeof(Ppn);
  const std::size_t size = kTwoMiB / entry_bytes - (c.own_mapping ? 0 : 1);
  if (c.oob) {
    check_page_map<Oob>(size);
  } else {
    check_page_map<Ppn>(size);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, PageMapPaths,
    ::testing::Values(PageMapCase{"PpnBelow2MiB", false, false},
                      PageMapCase{"PpnAt2MiB", false, true},
                      PageMapCase{"OobBelow2MiB", true, false},
                      PageMapCase{"OobAt2MiB", true, true}),
    [](const ::testing::TestParamInfo<PageMapCase>& info) {
      return std::string(info.param.name);
    });

TEST(Ftl, RecordMetricsExportsFreePagesAndWaGauges) {
  Ftl ftl(small_ftl());
  for (Lpn lpn = 0; lpn < 30; ++lpn) ftl.write(lpn);
  for (Lpn lpn = 0; lpn < 30; ++lpn) ftl.write(lpn);  // force relocations
  obs::MetricsRegistry registry;
  ftl.stats().record_metrics(registry);
  ASSERT_NE(registry.find_gauge("ftl.free_pages"), nullptr);
  EXPECT_DOUBLE_EQ(registry.find_gauge("ftl.free_pages")->value,
                   static_cast<double>(ftl.stats().free_pages));
  EXPECT_GT(registry.find_gauge("ftl.free_pages")->value, 0.0);
  ASSERT_NE(registry.find_gauge("ftl.wa"), nullptr);
  EXPECT_GE(registry.find_gauge("ftl.wa")->value, 1.0);
  EXPECT_DOUBLE_EQ(registry.find_gauge("ftl.wa")->value,
                   ftl.stats().write_amplification());
}

}  // namespace
}  // namespace isp::flash
