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
#include "storage_oracle.hpp"
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
  zns.write_span(0, 1);
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
  EXPECT_THROW(zns.write_span(zns.logical_pages(), 1), Error);
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
    zns.write_span(rng.uniform_u64(0, zns.logical_pages() - 1), 1);
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
  for (std::uint32_t i = 0; i < zns.zone_pages(); ++i) zns.trim_span(i, 1);
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
    zns.write_span(rng.uniform_u64(0, zns.logical_pages() - 1), 1);
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

TEST(Zns, RetiringAResetAppendZoneKeepsWritesLanding) {
  // A reset host append zone is Empty and the lowest free zone again;
  // retiring it must move the append point to another zone, not hand the
  // dying zone straight back, or every later write meets an Offline zone.
  auto config = small_zns();
  config.overprovision = 0.5;
  ZnsDevice zns(config);
  zns.write_span(0, 1);
  const std::uint64_t zone = *zns.translate(0) / zns.zone_pages();
  zns.trim_span(0, 1);
  zns.reset_zone(zone);
  EXPECT_EQ(zns.zone_state(zone), ZoneState::Empty);
  zns.retire_zone(zone);
  EXPECT_EQ(zns.zone_state(zone), ZoneState::Offline);
  zns.check_invariants();
  for (flash::Lpn lpn = 0; lpn < 2 * zns.zone_pages(); ++lpn) {
    zns.write_span(lpn, 1);
    ASSERT_TRUE(zns.translate(lpn).has_value());
    EXPECT_NE(*zns.translate(lpn) / zns.zone_pages(), zone)
        << "write landed on the retired zone";
  }
  zns.check_invariants();
}

TEST(Zns, RecordMetricsExportsZnsPrefix) {
  ZnsDevice zns(small_zns());
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    zns.write_span(rng.uniform_u64(0, zns.logical_pages() - 1), 1);
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
    ftl.write_span(lpn, 1);
    zns.write_span(lpn, 1);
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
    zns.write_span(rng.uniform_u64(0, zns.logical_pages() - 1), 1);
  }
  std::set<flash::Lpn> mapped_before;
  for (flash::Lpn lpn = 0; lpn < zns.logical_pages(); ++lpn) {
    if (zns.translate(lpn)) mapped_before.insert(lpn);
  }

  const auto crash = zns.power_loss();
  EXPECT_EQ(crash.lost_trims, 0u);  // write-only: nothing buffered to lose
  // A crashed device refuses every data-plane call: its logical map is
  // stale until recover() replays the durable metadata over it.
  EXPECT_FALSE(zns.mounted());
  EXPECT_THROW(zns.write_span(0, 1), Error);
  EXPECT_THROW(zns.trim_span(0, 1), Error);
  EXPECT_THROW(static_cast<void>(zns.read_span(0, 1, nullptr)), Error);
  EXPECT_THROW(static_cast<void>(zns.translate(0)), Error);
  EXPECT_THROW(zns.zone_append(zns.zone_count() - 1, 0), Error);
  EXPECT_THROW(zns.check_invariants(), Error);
  EXPECT_THROW(zns.check_invariants_incremental(), Error);
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
  for (flash::Lpn lpn = 0; lpn < 8; ++lpn) zns.write_span(lpn, 1);
  for (flash::Lpn lpn = 0; lpn < 4; ++lpn) zns.trim_span(lpn, 1);
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
    for (const auto lpn : ops) zns.write_span(lpn, 1);
    reference = occupancy_digest(zns);
  }

  for (int point = 0; point < kPoints; ++point) {
    const int crash_after = 2 + point * 5;  // 2, 7, ..., 247 — all < kOps
    ZnsDevice zns(config);
    for (int i = 0; i < crash_after; ++i) zns.write_span(ops[i], 1);
    zns.power_loss();
    zns.recover();
    for (int i = crash_after; i < kOps; ++i) zns.write_span(ops[i], 1);
    zns.check_invariants();
    EXPECT_EQ(occupancy_digest(zns), reference)
        << "crash after op " << crash_after << " diverged";
  }
}

// ---------------------------------------------------------------------------
// Extent data plane: the shared storage oracle on the zoned backend.

// Each extent whole against the same extent as one-page extents
// (storage_oracle.hpp), through zone fills, implicit opens and watermark
// reclaim.
class ZnsSpanDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZnsSpanDiff, SpanOpsMatchScalarOpsExactly) {
  storage_oracle::expect_spans_match_pages<ZnsDevice>(
      small_zns(/*journal=*/true), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZnsSpanDiff,
                         ::testing::Values(5, 17, 43, 61, 89));

// The same comparison across power cuts at 50 points of the workload.
TEST(ZnsSpanCrash, FiftyPointSweepMatchesScalarTwin) {
  storage_oracle::expect_crash_sweep_matches_pages<ZnsDevice>(
      small_zns(/*journal=*/true));
}

TEST(ZnsSpanCrash, IncrementalAndExhaustiveRemountVerifyAgree) {
  storage_oracle::expect_remount_checks_agree<ZnsDevice>(
      small_zns(/*journal=*/true));
}

// The map model (storage_oracle.hpp) on the zoned backend.
class ZnsMapModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZnsMapModel, LastWriteWinsAndTrimsUnmap) {
  ZnsDevice zns(small_zns(/*journal=*/true));
  storage_oracle::expect_matches_map_model(zns, GetParam());
  zns.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZnsMapModel, ::testing::Values(3, 31, 71));

TEST(ZnsSpan, ReadSpanMatchesTranslateLoop) {
  ZnsDevice zns(small_zns());
  for (flash::Lpn lpn = 10; lpn < 40; ++lpn) zns.write_span(lpn, 1);
  zns.trim_span(15, 1);
  zns.trim_span(33, 1);
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
