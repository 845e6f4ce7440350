// Property + unit tests for the zoned-namespace backend (src/zns/).
//
// The suite pins the ZNS model's contract at three levels:
//   * the zone state machine (write-pointer monotonicity, the open-zone
//     resource limit, reset/finish/retire semantics);
//   * host-coordinated reclaim (watermark convergence, conservation of live
//     data, write amplification >= 1);
//   * power-loss durability (journaled trims + OOB append order recover the
//     exact mapping; a >= 50-point crash sweep over a fixed workload must
//     land on the no-crash digest at every point).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "flash/ftl.hpp"
#include "obs/metrics.hpp"
#include "zns/zns.hpp"

namespace isp::zns {
namespace {

// 1 channel x 1 die x 1 plane, 32 blocks of 8 pages, 2 blocks per zone:
// 16 zones of 16 pages.  One metadata zone leaves 15 data zones; 0.4
// overprovision exposes 144 logical pages (9 zones), and 9 logical + 2
// append + 4 high-watermark = 15 <= 15 makes the geometry exactly feasible.
// 64-byte pages make journal pages fill after 4 trim records, so small
// workloads still exercise journal programs and checkpoint folds.
ZnsConfig small_zns(bool journal = false) {
  ZnsConfig config;
  config.geometry.channels = 1;
  config.geometry.dies_per_channel = 1;
  config.geometry.planes_per_die = 1;
  config.geometry.blocks_per_die = 32;
  config.geometry.pages_per_block = 8;
  config.geometry.page_bytes = Bytes{64};
  config.zone_blocks = 2;
  config.max_open_zones = 3;
  config.meta_zones = 1;
  config.overprovision = 0.4;
  config.reclaim_low_watermark = 2;
  config.reclaim_high_watermark = 4;
  config.journal.enabled = journal;
  return config;
}

TEST(ZnsConfigCheck, RejectsNonTilingZoneBlocks) {
  auto config = small_zns();
  config.zone_blocks = 5;  // 32 % 5 != 0
  EXPECT_THROW(ZnsDevice{config}, Error);
}

TEST(ZnsConfigCheck, RejectsTooFewOpenZones) {
  auto config = small_zns();
  config.max_open_zones = 1;  // host append + reclaim copy need two
  EXPECT_THROW(ZnsDevice{config}, Error);
}

TEST(ZnsConfigCheck, RejectsInfeasibleOverprovision) {
  auto config = small_zns();
  // 0.05 OP -> 15 logical zones; 15 + 2 + 4 > 15 data zones.
  config.overprovision = 0.05;
  EXPECT_THROW(ZnsDevice{config}, Error);
}

TEST(Zns, GeometryAndInitialState) {
  ZnsDevice zns(small_zns());
  EXPECT_EQ(zns.zone_count(), 16u);
  EXPECT_EQ(zns.data_zones(), 15u);
  EXPECT_EQ(zns.zone_pages(), 16u);
  EXPECT_EQ(zns.logical_pages(), 144u);
  EXPECT_EQ(zns.kind(), flash::BackendKind::Zns);
  // The constructor opens the host and reclaim append targets.
  EXPECT_EQ(zns.open_zones(), 2u);
  EXPECT_EQ(zns.free_zones(), 13u);
  zns.check_invariants();
}

TEST(Zns, TranslateAfterWrite) {
  ZnsDevice zns(small_zns());
  EXPECT_FALSE(zns.translate(0).has_value());
  zns.write(0);
  ASSERT_TRUE(zns.translate(0).has_value());
  zns.check_invariants();
}

TEST(Zns, ZoneAppendReturnsWritePointerSlot) {
  ZnsDevice zns(small_zns());
  const std::uint64_t zone = 5;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto wp_before = zns.write_pointer(zone);
    const flash::Ppn ppn = zns.zone_append(zone, i);
    // The device assigns the slot at the write pointer and advances it.
    EXPECT_EQ(ppn, zone * zns.zone_pages() + wp_before);
    EXPECT_EQ(zns.write_pointer(zone), wp_before + 1);
    EXPECT_EQ(zns.translate(i), ppn);
  }
  zns.check_invariants();
}

TEST(Zns, OutOfRangeRejected) {
  ZnsDevice zns(small_zns());
  EXPECT_THROW(zns.write(zns.logical_pages()), Error);
  EXPECT_THROW(static_cast<void>(zns.translate(zns.logical_pages())), Error);
  EXPECT_THROW(zns.zone_append(0, 0), Error);  // metadata zone
  EXPECT_THROW(zns.zone_append(zns.zone_count(), 0), Error);
  EXPECT_THROW(static_cast<void>(zns.zone_state(zns.zone_count())), Error);
}

// The core zone property: under an arbitrary host write stream, observed at
// write()-call granularity, a zone's write pointer only ever advances — the
// sole way back is through a reset (one write() can both reset a victim and
// re-append into it, so the pointer may land anywhere, but only in a step
// whose reset count grew) — and the open-zone limit holds at every step.
TEST(Zns, WritePointerMonotoneAndOpenLimitUnderRandomWrites) {
  ZnsDevice zns(small_zns());
  Rng rng(0xfeedULL);
  std::vector<std::uint32_t> wp(zns.zone_count(), 0);
  std::uint64_t resets_seen = 0;
  for (int step = 0; step < 4000; ++step) {
    zns.write(rng.uniform_u64(0, zns.logical_pages() - 1));
    EXPECT_LE(zns.open_zones(), zns.config().max_open_zones);
    bool receded = false;
    for (std::uint64_t z = 1; z < zns.zone_count(); ++z) {
      const std::uint32_t now = zns.write_pointer(z);
      if (now < wp[z]) receded = true;
      wp[z] = now;
    }
    const std::uint64_t resets_now = zns.stats().zone_resets;
    if (receded) {
      EXPECT_GT(resets_now, resets_seen)
          << "a write pointer moved backwards without any zone reset";
    }
    resets_seen = resets_now;
  }
  EXPECT_GT(zns.stats().zone_resets, 0u);  // the workload forced reclaim
  zns.check_invariants();
}

TEST(Zns, OpenZoneLimitShedsLeastRecentlyOpened) {
  ZnsDevice zns(small_zns());  // two zones already open (append targets)
  zns.open_zone(5);
  EXPECT_EQ(zns.open_zones(), 3u);
  EXPECT_EQ(zns.stats().implicit_closes, 0u);
  // A fourth open must shed the LRU open zone to respect the limit.
  zns.open_zone(6);
  EXPECT_EQ(zns.open_zones(), 3u);
  EXPECT_EQ(zns.stats().implicit_closes, 1u);
  EXPECT_EQ(zns.zone_state(6), ZoneState::ExplicitlyOpen);
  zns.check_invariants();
}

TEST(Zns, CloseAndReopenKeepsWritePointer) {
  ZnsDevice zns(small_zns());
  zns.zone_append(5, 0);
  zns.zone_append(5, 1);
  zns.close_zone(5);
  EXPECT_EQ(zns.zone_state(5), ZoneState::Closed);
  EXPECT_EQ(zns.write_pointer(5), 2u);
  // Append to a Closed zone reopens it implicitly at the same pointer.
  const flash::Ppn ppn = zns.zone_append(5, 2);
  EXPECT_EQ(ppn, 5 * zns.zone_pages() + 2);
  EXPECT_EQ(zns.zone_state(5), ZoneState::ImplicitlyOpen);
  zns.check_invariants();
}

TEST(Zns, ResetOfLiveZoneRejectedUntilTrimmed) {
  ZnsDevice zns(small_zns());
  const std::uint64_t zone = 5;
  for (std::uint32_t i = 0; i < zns.zone_pages(); ++i) {
    zns.zone_append(zone, i);
  }
  EXPECT_EQ(zns.zone_state(zone), ZoneState::Full);
  EXPECT_THROW(zns.zone_append(zone, 0), Error);  // full zones reject
  // Resetting live data would lose it: the model rejects loudly.
  EXPECT_THROW(zns.reset_zone(zone), Error);
  for (std::uint32_t i = 0; i < zns.zone_pages(); ++i) zns.trim(i);
  zns.reset_zone(zone);
  EXPECT_EQ(zns.zone_state(zone), ZoneState::Empty);
  EXPECT_EQ(zns.write_pointer(zone), 0u);
  EXPECT_GT(zns.stats().zone_resets, 0u);
  EXPECT_GT(zns.stats().erases, 0u);
  zns.check_invariants();
}

TEST(Zns, FinishZoneBlocksAppendsBeforeCapacity) {
  ZnsDevice zns(small_zns());
  zns.zone_append(5, 0);
  zns.finish_zone(5);
  EXPECT_EQ(zns.zone_state(5), ZoneState::Full);
  EXPECT_LT(zns.write_pointer(5), zns.zone_pages());
  EXPECT_THROW(zns.zone_append(5, 1), Error);
  zns.check_invariants();
}

TEST(Zns, SteadyStateOverwritesTriggerHostReclaim) {
  ZnsDevice zns(small_zns());
  Rng rng(0x2718ULL);
  for (int i = 0; i < 3000; ++i) {
    zns.write(rng.uniform_u64(0, zns.logical_pages() - 1));
  }
  const auto& stats = zns.stats();
  EXPECT_GT(stats.reclaim_invocations, 0u);
  EXPECT_GT(stats.reclaim_copies, 0u);
  EXPECT_GT(stats.zone_resets, 0u);
  EXPECT_GE(stats.write_amplification(), 1.0);
  EXPECT_GE(zns.free_zones(), zns.config().reclaim_low_watermark);
  // Conservation: reclaim moved data, it never lost it.
  for (flash::Lpn lpn = 0; lpn < zns.logical_pages(); ++lpn) {
    EXPECT_TRUE(zns.translate(lpn).has_value()) << "lpn " << lpn;
  }
  zns.check_invariants();
}

TEST(Zns, RetireZoneGoesOfflineAndPreservesData) {
  // Retirement shrinks the healthy-zone pool, so the exactly-feasible
  // default geometry has no zone to spare; raise overprovision to make room
  // for one casualty (8 logical + 2 append + 4 watermark + 1 <= 15).
  auto config = small_zns();
  config.overprovision = 0.5;
  ZnsDevice zns(config);
  const std::uint64_t zone = 5;
  for (std::uint32_t i = 0; i < 6; ++i) zns.zone_append(zone, i);
  zns.retire_zone(zone);
  EXPECT_EQ(zns.zone_state(zone), ZoneState::Offline);
  EXPECT_EQ(zns.stats().zones_retired, 1u);
  for (std::uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(zns.translate(i).has_value());
    EXPECT_NE(*zns.translate(i) / zns.zone_pages(), zone)
        << "live page left on a retired zone";
  }
  EXPECT_THROW(zns.zone_append(zone, 0), Error);
  EXPECT_THROW(zns.open_zone(zone), Error);
  zns.retire_zone(zone);  // idempotent
  EXPECT_EQ(zns.stats().zones_retired, 1u);
  zns.check_invariants();
}

TEST(Zns, RecordMetricsExportsZnsPrefix) {
  ZnsDevice zns(small_zns());
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    zns.write(rng.uniform_u64(0, zns.logical_pages() - 1));
  }
  obs::MetricsRegistry registry;
  zns.record_metrics(registry);
  EXPECT_EQ(registry.counter_value("zns.host_appends"),
            zns.stats().host_appends);
  ASSERT_NE(registry.find_gauge("zns.free_zones"), nullptr);
  EXPECT_DOUBLE_EQ(registry.find_gauge("zns.free_zones")->value,
                   static_cast<double>(zns.free_zones()));
  ASSERT_NE(registry.find_gauge("zns.wa"), nullptr);
  EXPECT_GE(registry.find_gauge("zns.wa")->value, 1.0);
}

// The structural claim behind the backend split (ZCSD): the ZNS mapping is
// the append order, so an identical write-only workload programs strictly
// fewer metadata pages on ZNS (checkpoint folds only) than on the FTL
// (which journals every mapping update).
TEST(Zns, WritesJournalLessMetadataThanFtl) {
  auto zconfig = small_zns(/*journal=*/true);
  flash::FtlConfig fconfig;
  fconfig.geometry = zconfig.geometry;
  fconfig.overprovision = zconfig.overprovision;
  fconfig.journal.enabled = true;
  flash::Ftl ftl(fconfig);
  ZnsDevice zns(zconfig);

  const std::uint64_t span = std::min(ftl.logical_pages(),
                                      zns.logical_pages());
  Rng rng(0x5eedULL);
  for (int i = 0; i < 800; ++i) {
    const flash::Lpn lpn = rng.uniform_u64(0, span - 1);
    ftl.write(lpn);
    zns.write(lpn);
  }
  EXPECT_GT(ftl.counters().meta_pages, 0u);
  EXPECT_LT(zns.counters().meta_pages, ftl.counters().meta_pages);
  ftl.check_invariants();
  zns.check_invariants();
}

TEST(Zns, PowerLossRequiresJournal) {
  ZnsDevice zns(small_zns(/*journal=*/false));
  EXPECT_THROW(zns.power_loss(), Error);
}

TEST(Zns, RecoveryPreservesEveryDurableMapping) {
  ZnsDevice zns(small_zns(/*journal=*/true));
  Rng rng(0xabcdULL);
  for (int i = 0; i < 700; ++i) {
    zns.write(rng.uniform_u64(0, zns.logical_pages() - 1));
  }
  std::set<flash::Lpn> mapped_before;
  for (flash::Lpn lpn = 0; lpn < zns.logical_pages(); ++lpn) {
    if (zns.translate(lpn)) mapped_before.insert(lpn);
  }

  const auto crash = zns.power_loss();
  EXPECT_EQ(crash.lost_trims, 0u);  // write-only: nothing buffered to lose
  EXPECT_FALSE(zns.mounted());
  EXPECT_THROW(zns.write(0), Error);  // unmounted device rejects IO
  const auto rec = zns.recover();
  EXPECT_TRUE(zns.mounted());
  EXPECT_EQ(rec.mappings_recovered, mapped_before.size());
  EXPECT_GT(rec.media_reads(), 0u);

  // Every append is durable via its OOB stamp: the recovered mapping set is
  // exactly the pre-crash set (placements may differ; occupancy may not).
  std::set<flash::Lpn> mapped_after;
  for (flash::Lpn lpn = 0; lpn < zns.logical_pages(); ++lpn) {
    if (zns.translate(lpn)) mapped_after.insert(lpn);
  }
  EXPECT_EQ(mapped_before, mapped_after);
  EXPECT_EQ(zns.stats().recoveries, 1u);
  zns.check_invariants();
}

TEST(Zns, DurablyJournaledTrimsStayTrimmedAcrossCrash) {
  auto config = small_zns(/*journal=*/true);
  ZnsDevice zns(config);
  // 64-byte pages / 16-byte entries: 4 trims fill and program one journal
  // page, making those trims durable.
  for (flash::Lpn lpn = 0; lpn < 8; ++lpn) zns.write(lpn);
  for (flash::Lpn lpn = 0; lpn < 4; ++lpn) zns.trim(lpn);
  EXPECT_GT(zns.counters().meta_pages, 0u);

  zns.power_loss();
  zns.recover();
  for (flash::Lpn lpn = 0; lpn < 4; ++lpn) {
    EXPECT_FALSE(zns.translate(lpn).has_value())
        << "durably journaled trim of lpn " << lpn << " resurrected";
  }
  for (flash::Lpn lpn = 4; lpn < 8; ++lpn) {
    EXPECT_TRUE(zns.translate(lpn).has_value());
  }
  zns.check_invariants();
}

/// Digest of the logical occupancy map — which lpns currently translate.
/// Physical placement legitimately differs across crash/recover (zones are
/// re-opened, reclaim interleaves differently), but with a write-only
/// workload the set of mapped logical pages must not depend on where (or
/// whether) a crash happened.
std::uint64_t occupancy_digest(const ZnsDevice& zns) {
  std::uint64_t h = kFnvOffset;
  for (flash::Lpn lpn = 0; lpn < zns.logical_pages(); ++lpn) {
    h = fnv1a(h, zns.translate(lpn).has_value() ? 1u : 0u);
  }
  return h;
}

// The acceptance sweep: one fixed write-only workload, a crash injected at
// >= 50 distinct points, and the post-workload digest must equal the
// no-crash reference at every point.  (Write-only because buffered trims
// are legitimately lost to a crash — the fault model documents the
// resurrection — so trims would make the final state crash-point
// dependent by design.)
TEST(Zns, CrashPointSweepMatchesNoCrashDigest) {
  const auto config = small_zns(/*journal=*/true);
  constexpr int kOps = 300;
  constexpr int kPoints = 50;

  std::vector<flash::Lpn> ops;
  {
    Rng rng(0xc0ffeeULL);
    ZnsDevice probe(config);
    for (int i = 0; i < kOps; ++i) {
      ops.push_back(rng.uniform_u64(0, probe.logical_pages() - 1));
    }
  }

  std::uint64_t reference = 0;
  {
    ZnsDevice zns(config);
    for (const auto lpn : ops) zns.write(lpn);
    reference = occupancy_digest(zns);
  }

  for (int point = 0; point < kPoints; ++point) {
    const int crash_after = 2 + point * 5;  // 2, 7, ..., 247 — all < kOps
    ZnsDevice zns(config);
    for (int i = 0; i < crash_after; ++i) zns.write(ops[i]);
    zns.power_loss();
    zns.recover();
    for (int i = crash_after; i < kOps; ++i) zns.write(ops[i]);
    zns.check_invariants();
    EXPECT_EQ(occupancy_digest(zns), reference)
        << "crash after op " << crash_after << " diverged";
  }
}

// ---------------------------------------------------------------------------
// Extent (span) data plane: the batched ops must be bit-for-bit the scalar
// loops, through zone fills, implicit opens, reclaim and crash/remount.

struct SpanOp {
  bool is_trim = false;
  flash::Lpn first = 0;
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

void apply_scalar(flash::StorageBackend& dev, const SpanOp& op) {
  for (std::uint64_t i = 0; i < op.count; ++i) {
    if (op.is_trim) {
      dev.trim(op.first + i);
    } else {
      dev.write(op.first + i);
    }
  }
}

void apply_span(flash::StorageBackend& dev, const SpanOp& op) {
  if (op.is_trim) {
    dev.trim_span(op.first, op.count);
  } else {
    dev.write_span(op.first, op.count);
  }
}

void expect_identical(const ZnsDevice& scalar, const ZnsDevice& span) {
  ASSERT_EQ(scalar.logical_pages(), span.logical_pages());
  for (flash::Lpn lpn = 0; lpn < scalar.logical_pages(); ++lpn) {
    ASSERT_EQ(scalar.translate(lpn), span.translate(lpn))
        << "mapping diverged at lpn " << lpn;
  }
  for (std::uint64_t z = 0; z < scalar.zone_count(); ++z) {
    EXPECT_EQ(scalar.zone_state(z), span.zone_state(z)) << "zone " << z;
    EXPECT_EQ(scalar.write_pointer(z), span.write_pointer(z)) << "zone " << z;
    EXPECT_EQ(scalar.live_pages(z), span.live_pages(z)) << "zone " << z;
  }
  const auto& a = scalar.stats();
  const auto& b = span.stats();
  EXPECT_EQ(a.host_appends, b.host_appends);
  EXPECT_EQ(a.reclaim_copies, b.reclaim_copies);
  EXPECT_EQ(a.meta_appends, b.meta_appends);
  EXPECT_EQ(a.zone_resets, b.zone_resets);
  EXPECT_EQ(a.erases, b.erases);
  EXPECT_EQ(a.reclaim_invocations, b.reclaim_invocations);
  EXPECT_EQ(a.checkpoint_folds, b.checkpoint_folds);
  EXPECT_EQ(a.implicit_closes, b.implicit_closes);
  EXPECT_EQ(a.zones_retired, b.zones_retired);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_DOUBLE_EQ(a.write_amplification(), b.write_amplification());
  EXPECT_EQ(scalar.open_zones(), span.open_zones());
  EXPECT_EQ(scalar.free_zones(), span.free_zones());
  scalar.check_invariants();
  span.check_invariants();
  scalar.check_invariants_incremental();
  span.check_invariants_incremental();
}

// Mixed write/trim extents through zone fills and watermark reclaim: the
// reclaim invocation count must match exactly, including the per-append
// invocations of the scalar path in the at-watermark regime.
class ZnsSpanDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZnsSpanDiff, SpanOpsMatchScalarOpsExactly) {
  ZnsDevice scalar(small_zns(/*journal=*/true));
  ZnsDevice span(small_zns(/*journal=*/true));
  const auto ops =
      random_span_ops(GetParam(), scalar.logical_pages(), 400, 0.15);
  for (const auto& op : ops) {
    apply_scalar(scalar, op);
    apply_span(span, op);
  }
  EXPECT_GT(span.stats().reclaim_invocations, 0u)
      << "workload too light to exercise the watermark fallback";
  expect_identical(scalar, span);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZnsSpanDiff,
                         ::testing::Values(5, 17, 43, 61, 89));

// The acceptance sweep on the span path: >= 50 crash points in a
// span-driven workload, each compared against a scalar twin crash-driven at
// the same point — recovery counters, stats, zone table and mapping all
// bit-for-bit equal.
TEST(ZnsSpanCrash, FiftyPointSweepMatchesScalarTwin) {
  constexpr int kPoints = 50;
  std::vector<SpanOp> ops;
  {
    const ZnsDevice probe(small_zns(/*journal=*/true));
    ops = random_span_ops(0xfeedULL, probe.logical_pages(), 120, 0.1);
  }
  for (int point = 0; point < kPoints; ++point) {
    const std::size_t crash_after = 2 + static_cast<std::size_t>(point) * 2;
    ASSERT_LT(crash_after, ops.size());
    ZnsDevice scalar(small_zns(/*journal=*/true));
    ZnsDevice span(small_zns(/*journal=*/true));
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
TEST(ZnsSpanCrash, IncrementalAndExhaustiveRemountVerifyAgree) {
  ZnsDevice zns(small_zns(/*journal=*/true));
  const auto ops = random_span_ops(0xabcdULL, zns.logical_pages(), 150, 0.2);
  std::size_t cursor = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (std::size_t i = 0; i < 40; ++i, ++cursor) {
      apply_span(zns, ops[cursor % ops.size()]);
    }
    zns.power_loss();
    const auto rec = zns.recover();
    EXPECT_GT(rec.mappings_recovered, 0u);
    zns.check_invariants();
    zns.check_invariants_incremental();
  }
}

TEST(ZnsSpan, ReadSpanMatchesTranslateLoop) {
  ZnsDevice zns(small_zns());
  for (flash::Lpn lpn = 10; lpn < 40; ++lpn) zns.write(lpn);
  zns.trim(15);
  zns.trim(33);
  std::vector<flash::Ppn> collected;
  const auto mapped = zns.read_span(0, zns.logical_pages(), &collected);
  std::vector<flash::Ppn> expected;
  for (flash::Lpn lpn = 0; lpn < zns.logical_pages(); ++lpn) {
    if (const auto ppn = zns.translate(lpn)) expected.push_back(*ppn);
  }
  EXPECT_EQ(mapped, expected.size());
  EXPECT_EQ(collected, expected);
  EXPECT_EQ(zns.read_span(0, zns.logical_pages(), nullptr), mapped);
}

TEST(ZnsSpan, RejectsOutOfRangeExtents) {
  ZnsDevice zns(small_zns());
  EXPECT_THROW(zns.write_span(zns.logical_pages() - 2, 5), Error);
  EXPECT_THROW(zns.trim_span(zns.logical_pages(), 1), Error);
  EXPECT_THROW(
      static_cast<void>(zns.read_span(0, zns.logical_pages() + 1, nullptr)),
      Error);
  EXPECT_NO_THROW(zns.write_span(zns.logical_pages(), 0));
  zns.check_invariants();
}

}  // namespace
}  // namespace isp::zns
