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
#include "flash/unit_pool.hpp"
#include "obs/metrics.hpp"
#include "storage_oracle.hpp"

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
  ftl.write_span(0, 1);
  ASSERT_TRUE(ftl.translate(0).has_value());
  ftl.check_invariants();
}

TEST(Ftl, OverwriteMovesPage) {
  Ftl ftl(small_ftl());
  ftl.write_span(3, 1);
  const auto first = ftl.translate(3);
  ftl.write_span(3, 1);
  const auto second = ftl.translate(3);
  ASSERT_TRUE(first && second);
  EXPECT_NE(*first, *second);
  ftl.check_invariants();
}

TEST(Ftl, TrimDropsMapping) {
  Ftl ftl(small_ftl());
  ftl.write_span(5, 1);
  ftl.trim_span(5, 1);
  EXPECT_FALSE(ftl.translate(5).has_value());
  ftl.check_invariants();
  // Trim of an unwritten page is a no-op.
  EXPECT_NO_THROW(ftl.trim_span(6, 1));
}

TEST(Ftl, RejectsOutOfRange) {
  Ftl ftl(small_ftl());
  EXPECT_THROW(ftl.write_span(ftl.logical_pages(), 1), Error);
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
    ftl.write_span(lpn, 1);
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
    ftl.write_span(rng.uniform_u64(0, ftl.logical_pages() - 1), 1);
  }
  EXPECT_GT(ftl.stats().gc_invocations, 0u);
  EXPECT_GT(ftl.stats().erases, 0u);
  EXPECT_GE(ftl.stats().write_amplification(), 1.0);
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
  for (Lpn lpn = 0; lpn < ftl.logical_pages(); ++lpn) ftl.write_span(lpn, 1);

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
  for (Lpn lpn = 0; lpn < ftl.logical_pages(); ++lpn) ftl.write_span(lpn, 1);
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
      ftl.write_span(lpn, 1);
    } else {
      ftl.trim_span(lpn, 1);
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
      ftl.write_span(lpn, 1);
    } else {
      ftl.trim_span(lpn, 1);
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
// Extent data plane: an extent is contractually bit for bit the same extent
// split into one-page extents (flash/backend.hpp), checked by the shared
// storage oracle.

FtlConfig journaled_small() {
  FtlConfig config = small_ftl();
  config.geometry.page_bytes = Bytes{64};  // journal pages fill in 4 entries
  config.journal.enabled = true;
  config.journal.checkpoint_interval_pages = 4;
  return config;
}

// Each extent whole against the same extent as one-page extents
// (storage_oracle.hpp), through GC churn at the watermark.
class FtlSpanDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FtlSpanDiff, SpanOpsMatchScalarOpsExactly) {
  storage_oracle::expect_spans_match_pages<Ftl>(journaled_small(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlSpanDiff,
                         ::testing::Values(5, 17, 43, 61, 89));

// The same comparison across power cuts at 50 points of the workload.
TEST(FtlSpanCrash, FiftyPointSweepMatchesScalarTwin) {
  storage_oracle::expect_crash_sweep_matches_pages<Ftl>(journaled_small());
}

TEST(FtlSpanCrash, IncrementalAndExhaustiveRemountVerifyAgree) {
  storage_oracle::expect_remount_checks_agree<Ftl>(journaled_small());
}

// The map model (storage_oracle.hpp): no backend code, just which pages
// the op stream left mapped.
class FtlMapModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FtlMapModel, LastWriteWinsAndTrimsUnmap) {
  Ftl ftl(journaled_small());
  storage_oracle::expect_matches_map_model(ftl, GetParam());
  ftl.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlMapModel, ::testing::Values(3, 31, 71));

TEST(FtlSpan, ReadSpanMatchesTranslateLoop) {
  Ftl ftl(small_ftl());
  for (Lpn lpn = 10; lpn < 30; ++lpn) ftl.write_span(lpn, 1);
  ftl.trim_span(15, 1);
  ftl.trim_span(22, 1);
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
  for (Lpn lpn = 0; lpn < 30; ++lpn) ftl.write_span(lpn, 1);
  // One-page overwrites of the same 30 pages force relocations.
  for (Lpn lpn = 0; lpn < 30; ++lpn) ftl.write_span(lpn, 1);
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

// ---------------------------------------------------------------------------
// UnitPool, the erase-unit pool both backends own, driven directly: 16
// one-block units of 4 pages, 32 logical pages, watermarks 2/4.

PoolConfig small_pool() {
  PoolConfig config;
  config.geometry.channels = 1;
  config.geometry.dies_per_channel = 1;
  config.geometry.planes_per_die = 1;
  config.geometry.blocks_per_die = 16;
  config.geometry.pages_per_block = 4;
  config.overprovision = 0.5;
  config.low_watermark = 2;
  config.high_watermark = 4;
  config.names = {.backend = "FTL",
                  .unit = "block",
                  .units = "blocks",
                  .reclaim = "GC",
                  .append = "active",
                  .pool = "total",
                  .starved = "out of free blocks"};
  return config;
}

/// Whether `fn` throws an isp::Error whose message ends in `message`.
template <typename F>
bool throws_message(F fn, const std::string& message) {
  try {
    fn();
  } catch (const Error& e) {
    const std::string what = e.what();
    return what.size() >= message.size() &&
           what.compare(what.size() - message.size(), message.size(),
                        message) == 0;
  }
  return false;
}

TEST(UnitPool, VictimIsFirstStrictMinimumSkippingAppendPoints) {
  UnitPool::Hooks hooks;
  UnitPool pool(small_pool(), hooks);
  pool.reopen_append_points({});
  ASSERT_EQ(pool.host_point(), 0u);
  ASSERT_EQ(pool.reclaim_point(), 1u);
  // Units 0, 2, 3 and 4 fill in order (1 is the reclaim point); the host
  // point ends on unit 4.
  pool.write_span(0, 16);
  ASSERT_EQ(pool.host_point(), 4u);
  pool.trim_span(0, 1);   // unit 0: 3 valid
  pool.trim_span(8, 1);   // unit 3: 3 valid, ties with unit 0
  pool.trim_span(12, 2);  // unit 4: 2 valid, but the host append point
  EXPECT_EQ(pool.valid(0), 3u);
  EXPECT_EQ(pool.valid(2), 4u);
  EXPECT_EQ(pool.valid(3), 3u);
  EXPECT_EQ(pool.valid(4), 2u);
  EXPECT_EQ(pool.victim(), 0u);
  pool.check_invariants();
}

TEST(UnitPool, FullyValidVictimStandsDownButCountsTheInvocation) {
  UnitPool::Hooks hooks;
  UnitPool pool(small_pool(), hooks);
  pool.reopen_append_points({});
  pool.write_span(0, 12);  // units 0, 2, 3 full and fully valid
  // Take free units out of the pool (as ZNS opens do) down to the low
  // watermark, so reclaim has to run.
  for (std::uint64_t u = 4; pool.free_units() > 2; ++u) pool.take(u);
  // (A walk that relocated a fully valid unit would never gain space.)
  ASSERT_EQ(pool.victim(), pool.units());
  pool.reclaim();
  EXPECT_EQ(pool.stats().reclaim_invocations, 1u);
  EXPECT_EQ(pool.stats().erases, 0u);
  EXPECT_EQ(pool.stats().reclaim_pages, 0u);
  EXPECT_EQ(pool.free_units(), 2u);
  // A host write at the watermark re-runs the loop: one more stand-down.
  pool.write_span(12, 1);
  EXPECT_EQ(pool.stats().reclaim_invocations, 2u);
  EXPECT_EQ(pool.stats().reclaim_pages, 0u);
  pool.check_invariants();
}

TEST(UnitPool, FeasibilityChecksKeepTheirMessages) {
  PoolConfig tight = small_pool();
  tight.overprovision = 0.1;  // 15 logical blocks + 2 + 4 > 16
  EXPECT_TRUE(throws_message(
      [&] { (void)UnitPool::checked_logical_pages(tight); },
      "overprovision too small for the GC watermarks: 15 logical blocks + 2 "
      "active + 4 watermark > 16 total"));

  UnitPool::Hooks hooks;
  UnitPool pool(small_pool(), hooks);
  pool.reopen_append_points({});
  pool.write_span(0, 8);
  // 8 logical + 2 append + 4 watermark of 16 leaves two blocks to retire.
  pool.retire(5);
  pool.retire(6);
  EXPECT_TRUE(throws_message(
      [&] { pool.retire(7); },
      "cannot retire block 7: too few healthy blocks would remain"));
  EXPECT_FALSE(pool.retired(7));
  EXPECT_EQ(pool.retired_units(), 2u);
  pool.check_invariants();
}

// page_unit() divides page numbers in 32 bits, so a geometry whose last
// page number does not fit is rejected before anything is allocated.
TEST(UnitPool, PageNumbersMustFit32Bits) {
  PoolConfig config = small_pool();
  config.geometry.blocks_per_die = 1u << 30;  // 2^32 pages of 4
  EXPECT_NO_THROW((void)UnitPool::checked_logical_pages(config));
  config.geometry.blocks_per_die += 1;
  EXPECT_TRUE(throws_message(
      [&] { (void)UnitPool::checked_logical_pages(config); },
      "page numbers past 32 bits: 4294967300 pages"));
}

}  // namespace
}  // namespace isp::flash
