// Power-loss crash consistency, bottom to top: the storage backends' durable
// journal/checkpoint remount, the NVMe controller's abort+requeue reset,
// the firmware's reboot-and-restart path, the whole-device power cycle,
// and the engine-level crash-point sweep asserting host-identical output.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "baseline/baselines.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "csd/device.hpp"
#include "csd/firmware.hpp"
#include "fault/fault.hpp"
#include "flash/ftl.hpp"
#include "nvme/call_queue.hpp"
#include "nvme/controller.hpp"
#include "nvme/queue.hpp"
#include "recovery/recovery.hpp"
#include "runtime/engine.hpp"
#include "sim/simulator.hpp"
#include "system/model.hpp"
#include "zns/zns.hpp"

namespace isp {
namespace {

using flash::Ftl;
using flash::FtlConfig;
using flash::Lpn;

/// Tiny journaled FTL: 64-byte pages hold 4 journal entries (16 B each) and
/// 8 checkpoint slots (8 B each), so journal-page programs and checkpoint
/// folds happen within a few dozen writes instead of thousands.
FtlConfig journaled_ftl(double overprovision = 0.3) {
  FtlConfig config;
  config.geometry.channels = 1;
  config.geometry.dies_per_channel = 1;
  config.geometry.planes_per_die = 1;
  config.geometry.blocks_per_die = 24;
  config.geometry.pages_per_block = 8;
  config.geometry.page_bytes = Bytes{64};
  config.overprovision = overprovision;
  config.journal.enabled = true;
  config.journal.checkpoint_interval_pages = 4;
  return config;
}

// ---------------------------------------------------------------------------
// Journal cost accounting: durable metadata is real write traffic.

TEST(FtlJournal, MetaWritesVisibleInWriteAmplification) {
  Ftl ftl(journaled_ftl());
  for (Lpn lpn = 0; lpn < 40; ++lpn) ftl.write_span(lpn, 1);

  const auto& s = ftl.stats();
  EXPECT_EQ(s.host_writes, 40u);
  // 40 mapping updates at 4 entries per journal page: 10 journal pages, plus
  // checkpoint pages folded every 4 journal pages.
  EXPECT_GE(s.meta_writes, 10u);
  EXPECT_GE(s.checkpoint_folds, 1u);
  EXPECT_GT(s.write_amplification(), 1.0);
  ftl.check_invariants();
}

TEST(FtlJournal, DisabledJournalChargesNothingAndCannotCrash) {
  FtlConfig config = journaled_ftl();
  config.journal.enabled = false;
  Ftl ftl(config);
  for (Lpn lpn = 0; lpn < 40; ++lpn) ftl.write_span(lpn, 1);

  EXPECT_FALSE(ftl.journaling());
  EXPECT_EQ(ftl.stats().meta_writes, 0u);
  EXPECT_EQ(ftl.stats().checkpoint_folds, 0u);
  EXPECT_DOUBLE_EQ(ftl.stats().write_amplification(), 1.0);
  EXPECT_THROW(ftl.power_loss(), Error);
}

TEST(FtlJournal, CheckpointFoldBoundsJournalReplay) {
  Ftl ftl(journaled_ftl());
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    ftl.write_span(rng.uniform_u64(0, ftl.logical_pages() - 1), 1);
  }
  EXPECT_GE(ftl.stats().checkpoint_folds, 2u);

  ftl.power_loss();
  const auto rec = ftl.recover();
  // The durable journal never grows past one fold interval, so replay work
  // is bounded no matter how long the device ran.
  const auto& j = journaled_ftl().journal;
  const std::uint64_t entries_per_page = 64 / j.entry_bytes;
  EXPECT_LE(rec.journal_entries_replayed,
            static_cast<std::uint64_t>(j.checkpoint_interval_pages) *
                entries_per_page);
  EXPECT_GT(rec.checkpoint_pages_read, 0u);
  ftl.check_invariants();
}

// ---------------------------------------------------------------------------
// Crash + remount: what survives, what is rescued, what is genuinely lost.

TEST(FtlRecovery, RemountRestoresEveryDurableMapping) {
  Ftl ftl(journaled_ftl());
  std::map<Lpn, flash::Ppn> before;
  for (Lpn lpn = 0; lpn < 50; ++lpn) {
    ftl.write_span(lpn, 1);
    before[lpn] = *ftl.translate(lpn);
  }

  ftl.power_loss();
  EXPECT_FALSE(ftl.mounted());
  EXPECT_THROW(ftl.write_span(0, 1), Error);
  EXPECT_THROW(static_cast<void>(ftl.translate(0)), Error);
  EXPECT_THROW(ftl.trim_span(0, 1), Error);
  EXPECT_THROW(ftl.check_invariants(), Error);

  const auto rec = ftl.recover();
  EXPECT_TRUE(ftl.mounted());
  EXPECT_EQ(ftl.stats().recoveries, 1u);
  EXPECT_EQ(rec.mappings_recovered, 50u);
  EXPECT_GT(rec.media_reads(), 0u);
  for (const auto& [lpn, ppn] : before) {
    ASSERT_TRUE(ftl.translate(lpn).has_value()) << "lpn " << lpn;
    EXPECT_EQ(*ftl.translate(lpn), ppn) << "lpn " << lpn << " moved";
  }
  ftl.check_invariants();
  // The remounted FTL is fully operational.
  ftl.write_span(3, 1);
  ftl.trim_span(4, 1);
  ftl.check_invariants();
}

TEST(FtlRecovery, VolatileTailRescuedFromOob) {
  Ftl ftl(journaled_ftl());
  // Two mapping updates stay buffered (4 entries fill a journal page), so
  // the crash loses them from the journal — but not from the media: each
  // data-page program stamped lpn+seq out of band.
  ftl.write_span(10, 1);
  ftl.write_span(11, 1);
  EXPECT_EQ(ftl.journal_tail_updates(), 2u);

  const auto crash = ftl.power_loss();
  EXPECT_EQ(crash.lost_tail_updates, 2u);
  EXPECT_EQ(crash.lost_trims, 0u);

  const auto rec = ftl.recover();
  EXPECT_GE(rec.tail_updates_rescued, 2u);
  EXPECT_TRUE(ftl.translate(10).has_value());
  EXPECT_TRUE(ftl.translate(11).has_value());
  ftl.check_invariants();
}

TEST(FtlRecovery, BufferedTrimIsTheOnlyRealLoss) {
  Ftl ftl(journaled_ftl());
  // Four writes program a full journal page: lpn 7's mapping is durable.
  for (Lpn lpn = 4; lpn < 8; ++lpn) ftl.write_span(lpn, 1);
  EXPECT_EQ(ftl.journal_tail_updates(), 0u);
  // The trim stays in the volatile tail; nothing on media records it.
  ftl.trim_span(7, 1);
  EXPECT_FALSE(ftl.translate(7).has_value());

  const auto crash = ftl.power_loss();
  EXPECT_EQ(crash.lost_trims, 1u);

  ftl.recover();
  // The durable journal still maps lpn 7: the trim was resurrected.  This
  // is the documented (and NVMe-legal) loss mode — a trim is a hint.
  EXPECT_TRUE(ftl.translate(7).has_value());
  ftl.check_invariants();
}

TEST(FtlRecovery, NewestTailWriteWinsAfterRemount) {
  Ftl ftl(journaled_ftl());
  ftl.write_span(3, 1);
  const auto first = *ftl.translate(3);
  ftl.write_span(3, 1);  // supersedes within the volatile tail
  const auto second = *ftl.translate(3);
  ASSERT_NE(first, second);

  ftl.power_loss();
  const auto rec = ftl.recover();
  ASSERT_TRUE(ftl.translate(3).has_value());
  EXPECT_EQ(*ftl.translate(3), second) << "remount resurrected a stale page";
  EXPECT_GE(rec.stale_mappings_dropped + rec.tail_updates_rescued, 1u);
  ftl.check_invariants();
}

TEST(FtlRecovery, RetirementSurvivesPowerLoss) {
  Ftl ftl(journaled_ftl(/*overprovision=*/0.5));
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    ftl.write_span(rng.uniform_u64(0, ftl.logical_pages() - 1), 1);
  }
  ftl.retire_block(5);
  ftl.retire_block(9);
  EXPECT_EQ(ftl.retired_blocks(), 2u);

  ftl.power_loss();
  ftl.recover();
  EXPECT_EQ(ftl.retired_blocks(), 2u) << "bad-block table is durable";
  ftl.check_invariants();
  // Retired blocks stay excluded from allocation across the remount.
  for (int i = 0; i < 200; ++i) {
    ftl.write_span(rng.uniform_u64(0, ftl.logical_pages() - 1), 1);
  }
  EXPECT_EQ(ftl.retired_blocks(), 2u);
  ftl.check_invariants();
}

// Pages rescued from OOB live only in the volatile map until the next
// checkpoint fold, so a second cut must scan them again even after a
// journal page program moved the durable journal past their sequence
// numbers.
TEST(FtlRecovery, SecondCutKeepsOobRescuedPages) {
  Ftl ftl(journaled_ftl());
  ftl.write_span(10, 1);
  ftl.write_span(11, 1);
  ftl.power_loss();
  EXPECT_EQ(ftl.recover().tail_updates_rescued, 2u);

  // Four writes program one journal page and fold nothing.
  for (Lpn lpn = 20; lpn < 24; ++lpn) ftl.write_span(lpn, 1);
  EXPECT_EQ(ftl.journal_tail_updates(), 0u);
  EXPECT_EQ(ftl.stats().checkpoint_folds, 0u);

  ftl.power_loss();
  const auto rec = ftl.recover();
  EXPECT_EQ(rec.tail_updates_rescued, 2u);
  for (const Lpn lpn : {10, 11, 20, 21, 22, 23}) {
    EXPECT_TRUE(ftl.translate(lpn).has_value()) << "lost lpn " << lpn;
  }
  ftl.check_invariants();
}

// ---------------------------------------------------------------------------
// Multi-crash property, both backends: a random write/overwrite/trim stream
// (one-page and longer extents) with 2-8 power cuts 1-40 ops apart, so cuts
// land between checkpoint folds and remounts follow each other with no fold
// in between.  After every remount each acknowledged, untrimmed write still
// maps; every page mapped before the cut maps to the same physical page;
// and the only extra mappings are trims issued since the previous remount
// whose records were still buffered (docs/fault-model.md: a lost trim may
// resurrect).

/// Same geometry as zns_test's journaled device: 16 zones of 16 pages, 144
/// logical pages, four 16-byte journal records per 64-byte page.
zns::ZnsConfig journaled_zns() {
  zns::ZnsConfig config;
  config.geometry.channels = 1;
  config.geometry.dies_per_channel = 1;
  config.geometry.planes_per_die = 1;
  config.geometry.blocks_per_die = 32;
  config.geometry.pages_per_block = 8;
  config.geometry.page_bytes = Bytes{64};
  config.zone_blocks = 2;
  config.max_open_zones = 3;
  config.overprovision = 0.4;
  config.journal.enabled = true;
  return config;
}

struct ChurnCase {
  flash::BackendKind kind;
  std::uint64_t seed;
};

void PrintTo(const ChurnCase& c, std::ostream* os) {
  *os << flash::to_string(c.kind) << '_' << c.seed;
}

class CrashChurn : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(CrashChurn, AcknowledgedWritesSurviveEveryCut) {
  std::unique_ptr<flash::StorageBackend> device;
  if (GetParam().kind == flash::BackendKind::Ftl) {
    device = std::make_unique<Ftl>(journaled_ftl());
  } else {
    device = std::make_unique<zns::ZnsDevice>(journaled_zns());
  }
  flash::StorageBackend& dev = *device;
  Rng rng(GetParam().seed);
  const std::uint64_t n = dev.logical_pages();
  std::vector<char> live(n, 0);     // written and not trimmed since
  std::vector<char> trimmed(n, 0);  // trimmed since the last remount

  auto run_ops = [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      const Lpn first = rng.uniform_u64(0, n - 1);
      const bool write = rng.next_double() < 0.75;
      const bool span = rng.next_double() < 0.25;
      const std::uint64_t len =
          span ? rng.uniform_u64(1, std::min<std::uint64_t>(8, n - first)) : 1;
      if (write) {
        dev.write_span(first, len);
      } else {
        dev.trim_span(first, len);
      }
      for (Lpn lpn = first; lpn < first + len; ++lpn) {
        live[lpn] = write;
        if (!write) trimmed[lpn] = 1;
      }
    }
  };

  run_ops(rng.uniform_u64(0, 300));  // warm-up: GC/reclaim and folds
  const std::uint64_t cuts = rng.uniform_u64(2, 8);
  for (std::uint64_t cut = 0; cut < cuts; ++cut) {
    run_ops(rng.uniform_u64(1, 40));
    std::vector<std::optional<flash::Ppn>> before(n);
    for (Lpn lpn = 0; lpn < n; ++lpn) before[lpn] = dev.translate(lpn);

    const auto crash = dev.power_loss();
    const auto rec = dev.recover();
    dev.check_invariants();
    std::uint64_t mapped = 0;
    std::uint64_t resurrected = 0;
    for (Lpn lpn = 0; lpn < n; ++lpn) {
      const auto after = dev.translate(lpn);
      if (after) ++mapped;
      if (live[lpn]) {
        ASSERT_TRUE(after.has_value()) << "cut " << cut << " lost lpn " << lpn;
      }
      if (before[lpn]) {
        ASSERT_EQ(after, before[lpn]) << "cut " << cut << " moved lpn " << lpn;
      } else if (after) {
        ASSERT_TRUE(trimmed[lpn])
            << "cut " << cut << " mapped lpn " << lpn << " out of nowhere";
        ++resurrected;
      }
    }
    EXPECT_LE(resurrected, crash.lost_trims) << "cut " << cut;
    EXPECT_EQ(rec.mappings_recovered, mapped) << "cut " << cut;
    std::fill(trimmed.begin(), trimmed.end(), 0);

    // The device is writable again.
    const Lpn probe = rng.uniform_u64(0, n - 1);
    dev.write_span(probe, 1);
    live[probe] = 1;
    ASSERT_TRUE(dev.translate(probe).has_value());
  }
  EXPECT_EQ(dev.counters().recoveries, cuts);
}

std::vector<ChurnCase> churn_cases() {
  std::vector<ChurnCase> cases;
  for (const auto kind : {flash::BackendKind::Ftl, flash::BackendKind::Zns}) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      cases.push_back({kind, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Backends, CrashChurn,
                         ::testing::ValuesIn(churn_cases()));

// ---------------------------------------------------------------------------
// NVMe controller reset: in-flight commands abort exactly once and requeue.

TEST(ControllerPowerCycle, InFlightCommandAbortsOnceAndRequeues) {
  sim::Simulator simulator;
  flash::FlashArray array;
  FtlConfig ftl_config = journaled_ftl();
  ftl_config.journal.enabled = false;  // the controller does not care
  Ftl ftl(ftl_config);
  nvme::Controller controller(simulator, array, [&] { return &ftl; });
  nvme::QueuePair qp(1, 16);

  for (std::uint16_t i = 1; i <= 3; ++i) {
    qp.sq().push(nvme::SubmissionEntry{.opcode = nvme::Opcode::Write,
                                       .command_id = i,
                                       .lba = i,
                                       .length_pages = 1});
  }
  controller.ring_doorbell(qp);
  // Past the fetch latency (2 us) but well inside the first write's program
  // time: command 1 is fetched and uncompleted — in flight.
  simulator.run_until(SimTime{3e-6});

  const auto requeued = controller.power_cycle();
  EXPECT_EQ(requeued, 1u);
  EXPECT_EQ(controller.commands_requeued(), 1u);
  const auto aborted = qp.cq().pop();
  ASSERT_TRUE(aborted.has_value());
  EXPECT_EQ(aborted->command_id, 1);
  EXPECT_EQ(aborted->status, nvme::Status::Aborted);
  EXPECT_FALSE(qp.cq().pop().has_value()) << "only the in-flight command aborts";

  controller.restart();
  simulator.run();

  // The requeued command is a fresh submission: it earns its own (single)
  // success, and the epoch gate killed the pre-reset completion event.
  std::map<std::uint16_t, int> successes;
  while (const auto c = qp.cq().pop()) {
    EXPECT_EQ(c->status, nvme::Status::Success);
    ++successes[c->command_id];
  }
  EXPECT_EQ(successes.size(), 3u);
  for (const auto& [id, count] : successes) {
    EXPECT_EQ(count, 1) << "command " << id;
  }
  EXPECT_EQ(controller.commands_processed(), 3u);
  EXPECT_EQ(controller.commands_failed(), 0u);
}

TEST(ControllerPowerCycle, IdleResetIsFreeAndRestartIsIdempotent) {
  sim::Simulator simulator;
  flash::FlashArray array;
  FtlConfig ftl_config = journaled_ftl();
  ftl_config.journal.enabled = false;
  Ftl ftl(ftl_config);
  nvme::Controller controller(simulator, array, [&] { return &ftl; });

  EXPECT_EQ(controller.power_cycle(), 0u);
  controller.restart();  // nothing queued: no-op
  simulator.run();
  EXPECT_EQ(controller.commands_processed(), 0u);
}

// ---------------------------------------------------------------------------
// Firmware reboot: the interrupted call restarts from chunk 0 and completes.

TEST(FirmwarePowerCycle, InterruptedFunctionRestartsAndCompletes) {
  sim::Simulator simulator;
  csd::Cse cse;
  nvme::CallQueue calls(8);
  nvme::StatusQueue status(64);
  csd::FirmwareConfig fw_config;
  fw_config.chunks = 4;
  csd::Firmware firmware(simulator, cse, calls, status, fw_config);

  int completed = 0;
  int failed = 0;
  firmware.start([](const nvme::CallEntry&) { return Seconds{0.01}; },
                 [&](const nvme::CallEntry& entry) {
                   EXPECT_EQ(entry.function_id, 5u);
                   ++completed;
                 });
  firmware.set_on_failure(
      [&](const nvme::CallEntry&, isp::Status) { ++failed; });
  calls.submit(nvme::CallEntry{.function_id = 5, .first_line = 1});

  // 10 ms service over 4 chunks: at 4 ms the firmware is mid-function.
  simulator.run_until(SimTime{4e-3});
  EXPECT_TRUE(firmware.busy());

  firmware.power_cycle();
  EXPECT_FALSE(firmware.busy());
  EXPECT_EQ(firmware.functions_restarted(), 1u);

  simulator.run_until(SimTime{0.1});
  firmware.stop();
  simulator.run_until(SimTime{0.2});

  EXPECT_EQ(completed, 1) << "restarted call must complete exactly once";
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(firmware.functions_executed(), 1u);
  EXPECT_FALSE(firmware.busy());
}

// ---------------------------------------------------------------------------
// Whole-device power cycle.

TEST(DevicePowerCycle, RemountsJournaledFtlAndChargesMediaReads) {
  sim::Simulator simulator;
  csd::CsdDevice device(simulator, csd::CsdConfig{});
  ASSERT_TRUE(device.storage().journaling()) << "a real CSD journals by default";

  for (Lpn lpn = 0; lpn < 64; ++lpn) device.storage().write_span(lpn, 1);

  const auto outcome = device.power_cycle();
  EXPECT_TRUE(device.storage().mounted());
  EXPECT_EQ(device.storage().counters().recoveries, 1u);
  EXPECT_EQ(outcome.recovery.mappings_recovered, 64u);
  EXPECT_GT(outcome.recovery.media_reads(), 0u);
  // Remount time converts media reads through the device's NAND timing.
  EXPECT_NEAR(outcome.remount_time.value(),
              device.config().nand_timing.page_read.value() *
                  static_cast<double>(outcome.recovery.media_reads()),
              1e-12);
  device.storage().check_invariants();
  for (Lpn lpn = 0; lpn < 64; ++lpn) {
    EXPECT_TRUE(device.storage().translate(lpn).has_value()) << "lpn " << lpn;
  }
}

// ---------------------------------------------------------------------------
// Engine-level crash-point sweep (scaled-down; the full coverage run is
// bench/crash_recovery).  Every crashed-and-recovered run must produce the
// fault-free output digest and remount a consistent FTL.

void expect_sweep_survives(const std::string& app_name, std::uint64_t stride,
                           std::uint64_t max_points) {
  apps::AppConfig config;
  const auto program = apps::make_app(app_name, config);
  system::SystemModel plan_system;
  const auto oracle = baseline::programmer_directed_plan(plan_system, program);

  recovery::CrashSweepOptions options;
  options.stride = stride;
  options.max_points = max_points;
  const auto sweep = recovery::crash_sweep(program, oracle.best, options);

  ASSERT_GE(sweep.points.size(), 3u) << app_name << ": too few crash points";
  EXPECT_TRUE(sweep.all_outputs_match()) << app_name;
  EXPECT_TRUE(sweep.all_invariants_hold()) << app_name;
  for (const auto& p : sweep.points) {
    EXPECT_TRUE(p.crashed);
    EXPECT_GE(p.ftl_recoveries, 1u) << app_name << " boundary " << p.boundary;
    EXPECT_GT(p.recovery_overhead.value(), 0.0)
        << app_name << " boundary " << p.boundary;
    EXPECT_GT(p.total.value(), sweep.reference_total.value())
        << "a crash cannot make the run faster";
  }
  EXPECT_LT(sweep.worst_recovery().value(), sweep.reference_total.value());
}

TEST(CrashSweep, TpchQ6RecoversWithHostIdenticalOutput) {
  expect_sweep_survives("tpch-q6", 5, 6);
}

TEST(CrashSweep, KmeansRecoversWithHostIdenticalOutput) {
  expect_sweep_survives("kmeans", 31, 5);
}

TEST(CrashSweep, BlackscholesRecoversWithHostIdenticalOutput) {
  expect_sweep_survives("blackscholes", 7, 5);
}

// ---------------------------------------------------------------------------
// Determinism regression: identical fault seed + rates give byte-identical
// reports — crashes, recoveries, timing and all.

TEST(Determinism, IdenticalSeedsProduceByteIdenticalReports) {
  apps::AppConfig config;
  const auto program = apps::make_app("tpch-q6", config);
  system::SystemModel plan_system;
  const auto plan = baseline::programmer_directed_plan(plan_system, program);

  auto run_once = [&](std::string* json, std::uint64_t* digest) {
    system::SystemModel system;
    auto store = program.make_store();
    runtime::EngineOptions opts;
    opts.fault.seed = 11;
    opts.fault.set_rate_all(0.05);
    // Guarantee at least one power loss so the crash path is in the diff.
    auto& site =
        opts.fault.sites[static_cast<std::size_t>(fault::Site::PowerLoss)];
    site.rate = 1.0;
    site.skip_first = 2;
    site.max_faults = 1;
    const auto report = runtime::run_program(
        system, program, plan.best, codegen::ExecMode::CompiledNoCopy, opts,
        &store);
    EXPECT_EQ(report.power_losses, 1u);
    *json = report.to_json();
    *digest = recovery::digest_outputs(program, store);
  };

  std::string json_a;
  std::string json_b;
  std::uint64_t digest_a = 0;
  std::uint64_t digest_b = 0;
  run_once(&json_a, &digest_a);
  run_once(&json_b, &digest_b);
  EXPECT_EQ(json_a, json_b) << "same seed, different report";
  EXPECT_EQ(digest_a, digest_b);
}

}  // namespace
}  // namespace isp
