// Self-performance harness: how fast does the simulator itself run?
//
// ROADMAP north star: "runs as fast as the hardware allows".  This harness
// measures, in wall-clock terms,
//   1. simulations/sec for a batch of independent faulted runs, serial
//      (--jobs 1) vs parallel (--jobs N), with an exact-equality check that
//      the parallel batch produced bit-identical results — the executor's
//      determinism contract, enforced every time this bench runs;
//   2. micro timings for the hot simulation kernels this PR optimised:
//      AvailabilitySchedule queries (cursor + binary search) and the FTL
//      write/remount path (reserved journal buffers, allocation hint,
//      reused recovery scratch);
//   3. the storage data plane: page-at-a-time write() vs the extent
//      write_span() fast path on both backends, with a hard exact-equality
//      gate (same mappings, same stats) — the span contract is bit-for-bit
//      equivalence, so any divergence fails the bench.
// `--quick` shrinks every workload for CI; rates are still exported.
// Results are printed and exported to results/BENCH_selfperf.json so runs
// are comparable across machines and revisions.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "bench/bench_util.hpp"
#include "exec/cli.hpp"
#include "exec/pool.hpp"
#include "flash/ftl.hpp"
#include "runtime/active_runtime.hpp"
#include "sim/availability.hpp"
#include "zns/zns.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One batch task: a full planned run of a small app under a seed-specific
/// fault schedule, digested to a single word.  Everything mutable is
/// constructed inside the call (the run_batch contract).
std::uint64_t simulate_one(std::size_t task_index) {
  using namespace isp;
  apps::AppConfig config;
  config.size_factor = 0.1;
  const auto program = apps::make_app("tpch-q6", config);

  system::SystemModel system;
  runtime::RunConfig rc;
  rc.engine.fault.seed = 100 + task_index;
  rc.engine.fault.set_rate(fault::Site::FlashReadEcc, 0.2);
  rc.engine.fault.set_rate(fault::Site::CseCrash, 0.3);
  rc.engine.fault.set_rate(fault::Site::StatusLoss, 0.3);
  runtime::ActiveRuntime active(system);
  const auto result = active.run(program, rc);

  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv_mix(h, static_cast<std::uint64_t>(result.report.total.value() * 1e12));
  h = fnv_mix(h, result.report.faults.total_injected());
  h = fnv_mix(h, result.report.status_updates);
  h = fnv_mix(h, result.report.migrations);
  return h;
}

struct BatchTiming {
  double seconds = 0.0;
  std::vector<std::uint64_t> digests;
};

BatchTiming run_batch_timed(std::size_t tasks, unsigned jobs) {
  const auto t0 = Clock::now();
  BatchTiming timing;
  timing.digests =
      isp::exec::run_batch(tasks, [](std::size_t i) { return simulate_one(i); },
                           jobs);
  timing.seconds = elapsed_seconds(t0);
  return timing;
}

/// Availability kernel: monotone queries over a many-step schedule — the
/// engine's access pattern, where the cursor should make lookups O(1).
double availability_queries_per_sec(int kQueries) {
  using namespace isp;
  std::vector<std::pair<SimTime, double>> steps;
  for (int i = 0; i < 256; ++i) {
    steps.emplace_back(SimTime{i * 0.25}, (i % 4 == 0) ? 1.0 : 0.4);
  }
  const auto schedule = sim::AvailabilitySchedule::steps(std::move(steps));

  double sink = 0.0;
  const auto t0 = Clock::now();
  for (int q = 0; q < kQueries; ++q) {
    const SimTime t{(q % 640) * 0.1};  // sweeps forward, wraps (cursor reset)
    sink += schedule.fraction_at(t);
    if (q % 16 == 0) {
      sink += schedule.finish_time(t, Seconds{0.5}).seconds();
    }
  }
  const double secs = elapsed_seconds(t0);
  std::printf("  (availability checksum %.1f)\n", sink);
  return static_cast<double>(kQueries) / secs;
}

/// FTL kernel: journalled writes with overwrites (exercises GC, the journal
/// buffers and the allocation hint), then repeated power cycles (exercises
/// the reused recovery scratch).
struct FtlRates {
  double writes_per_sec = 0.0;
  double remounts_per_sec = 0.0;
};

isp::flash::FtlConfig bench_ftl_config() {
  using namespace isp;
  flash::FtlConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_die = 64;
  config.geometry.pages_per_block = 64;
  config.geometry.page_bytes = Bytes{4096};
  config.journal.enabled = true;
  return config;
}

FtlRates ftl_kernel_rates(std::uint64_t kWrites, int kCycles) {
  using namespace isp;
  flash::Ftl ftl(bench_ftl_config());
  const auto logical = ftl.logical_pages();

  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    ftl.write((i * 2654435761ULL) % logical);  // scattered overwrites
  }
  const double write_secs = elapsed_seconds(t0);

  t0 = Clock::now();
  for (int i = 0; i < kCycles; ++i) {
    (void)ftl.power_loss();
    (void)ftl.recover();
    // A little traffic between crashes so every remount has a tail to scan.
    for (std::uint64_t w = 0; w < 512; ++w) {
      ftl.write((i * 131 + w * 2654435761ULL) % logical);
    }
  }
  const double remount_secs = elapsed_seconds(t0);

  return FtlRates{static_cast<double>(kWrites) / write_secs,
                  static_cast<double>(kCycles) / remount_secs};
}

/// Storage data plane: sequential fills of a fresh device, issued
/// page-at-a-time on one and as extents on a twin, timed separately.  A
/// fill stays above the GC/reclaim watermarks, so this isolates the
/// allocation fast path the span work optimised; the reclaim regime is
/// contract-identical on both paths and is covered by the differential
/// suites.  The span contract is bit-for-bit equivalence, so the twins must
/// land in identical states — that equality is this bench's hard exit gate;
/// the rate ratio is the printed performance claim.
struct SpanRates {
  double scalar_pages_per_sec = 0.0;
  double span_pages_per_sec = 0.0;
  bool identical = false;

  [[nodiscard]] double speedup() const {
    return scalar_pages_per_sec > 0.0
               ? span_pages_per_sec / scalar_pages_per_sec
               : 0.0;
  }
};

template <typename Device>
std::uint64_t device_digest(const Device& device) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t lpn = 0; lpn < device.logical_pages(); ++lpn) {
    const auto ppn = device.translate(lpn);
    h = fnv_mix(h, ppn ? *ppn + 1 : 0);
  }
  const auto c = device.counters();
  h = fnv_mix(h, c.host_pages);
  h = fnv_mix(h, c.reclaim_pages);
  h = fnv_mix(h, c.meta_pages);
  h = fnv_mix(h, c.resets);
  h = fnv_mix(h, c.reclaim_events);
  return h;
}

template <typename MakeDevice>
SpanRates span_rates(MakeDevice make, std::uint64_t passes) {
  constexpr std::uint64_t extent = 4096;
  // A fill is only a few milliseconds, so a sum over passes measures
  // scheduler noise as much as the data plane; best-of-passes is the rate
  // (as in `serve_bench --scenario obs`), the digests still fold every pass.
  double scalar_best = 1e9;
  double span_best = 1e9;
  std::uint64_t pages = 0;
  std::uint64_t scalar_h = 0xcbf29ce484222325ULL;
  std::uint64_t span_h = 0xcbf29ce484222325ULL;

  // Both arms drive the device through the StorageBackend seam, because
  // that is how every consumer (the engine's dataset mount and write-back
  // loops, the NVMe controller, the serving fleet) reaches the data plane.
  // The per-page virtual dispatch the scalar loop pays is exactly the
  // per-page overhead an extent call amortises.
  for (std::uint64_t p = 0; p < passes; ++p) {
    {
      auto dev = make();
      isp::flash::StorageBackend& backend = dev;
      const std::uint64_t logical = backend.logical_pages();
      pages = logical;
      const auto t0 = Clock::now();
      for (std::uint64_t first = 0; first < logical; first += extent) {
        const std::uint64_t run = std::min(extent, logical - first);
        for (std::uint64_t i = 0; i < run; ++i) {
          backend.write(first + i);
        }
      }
      scalar_best = std::min(scalar_best, elapsed_seconds(t0));
      scalar_h = fnv_mix(scalar_h, device_digest(dev));
    }
    {
      auto dev = make();
      isp::flash::StorageBackend& backend = dev;
      const std::uint64_t logical = backend.logical_pages();
      const auto t0 = Clock::now();
      for (std::uint64_t first = 0; first < logical; first += extent) {
        backend.write_span(first, std::min(extent, logical - first));
      }
      span_best = std::min(span_best, elapsed_seconds(t0));
      span_h = fnv_mix(span_h, device_digest(dev));
    }
  }

  SpanRates rates;
  rates.scalar_pages_per_sec = static_cast<double>(pages) / scalar_best;
  rates.span_pages_per_sec = static_cast<double>(pages) / span_best;
  rates.identical = scalar_h == span_h;
  return rates;
}

SpanRates ftl_span_rates(std::uint64_t passes) {
  using namespace isp;
  // Production-shaped blocks: 256 pages x 16 KiB, same 16k-page array as
  // the kernel-rate config.  Short 64-page blocks would cap every bulk run
  // at the block tail and measure the run setup, not the data plane.
  auto config = bench_ftl_config();
  config.geometry.blocks_per_die = 16;
  config.geometry.pages_per_block = 256;
  config.geometry.page_bytes = Bytes{16384};
  return span_rates([config] { return flash::Ftl(config); }, passes);
}

SpanRates zns_span_rates(std::uint64_t passes) {
  using namespace isp;
  zns::ZnsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_die = 64;
  config.geometry.pages_per_block = 64;
  config.geometry.page_bytes = Bytes{4096};
  config.zone_blocks = 4;
  config.journal.enabled = true;
  return span_rates([config] { return zns::ZnsDevice(config); }, passes);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace isp;
  exec::reject_unknown_flags(argc, argv, {"--jobs", "--quick"});
  const unsigned jobs = exec::jobs_from_args(argc, argv);
  const bool quick = exec::flag_present(argc, argv, "--quick");
  const std::size_t kTasks = quick ? 6 : 24;
  const int kQueries = quick ? 250'000 : 2'000'000;
  const std::uint64_t kWrites = quick ? 60'000 : 400'000;
  const int kCycles = quick ? 12 : 64;
  const std::uint64_t kSpanPasses = quick ? 4 : 24;

  bench::print_header(
      "Self-performance: simulations/sec, serial vs parallel, plus kernel "
      "micro timings");
  std::printf("batch: %zu independent faulted tpch-q6 runs; parallel --jobs "
              "%u (hw threads: %u)%s\n\n",
              kTasks, jobs, exec::default_jobs(),
              quick ? "  [--quick]" : "");

  const auto serial = run_batch_timed(kTasks, 1);
  const auto parallel = run_batch_timed(kTasks, jobs);

  const bool identical = serial.digests == parallel.digests;
  const double serial_rate = static_cast<double>(kTasks) / serial.seconds;
  const double parallel_rate = static_cast<double>(kTasks) / parallel.seconds;
  const double speedup = serial.seconds / parallel.seconds;
  const bool single_core = bench::single_core();

  std::printf("%-28s %10.2f s  (%6.2f sims/s)\n", "serial (--jobs 1)",
              serial.seconds, serial_rate);
  std::printf("%-28s %10.2f s  (%6.2f sims/s)\n",
              ("parallel (--jobs " + std::to_string(jobs) + ")").c_str(),
              parallel.seconds, parallel_rate);
  if (single_core) {
    std::printf("%-28s %10s\n", "speedup", "n/a (single-core)");
  } else {
    std::printf("%-28s %10.2fx\n", "speedup", speedup);
  }
  std::printf("%-28s %10s\n", "parallel == serial (exact)",
              identical ? "PASS" : "FAIL");

  bench::print_header("Hot-kernel micro timings");
  const double avail_qps = availability_queries_per_sec(kQueries);
  const auto ftl = ftl_kernel_rates(kWrites, kCycles);
  std::printf("%-28s %12.0f queries/s\n", "availability lookup",
              avail_qps);
  std::printf("%-28s %12.0f writes/s\n", "FTL journalled write",
              ftl.writes_per_sec);
  std::printf("%-28s %12.1f remounts/s\n", "FTL power-cycle remount",
              ftl.remounts_per_sec);

  bench::print_header(
      "Storage data plane: write() vs write_span(), exact-equality gated");
  const auto ftl_span = ftl_span_rates(kSpanPasses);
  const auto zns_span = zns_span_rates(kSpanPasses);
  std::printf("%-28s %12.0f pages/s\n", "FTL scalar write",
              ftl_span.scalar_pages_per_sec);
  std::printf("%-28s %12.0f pages/s  (%.2fx)\n", "FTL span write",
              ftl_span.span_pages_per_sec, ftl_span.speedup());
  std::printf("%-28s %10s\n", "FTL span == scalar (exact)",
              ftl_span.identical ? "PASS" : "FAIL");
  std::printf("%-28s %12.0f pages/s\n", "ZNS scalar append",
              zns_span.scalar_pages_per_sec);
  std::printf("%-28s %12.0f pages/s  (%.2fx)\n", "ZNS span append",
              zns_span.span_pages_per_sec, zns_span.speedup());
  std::printf("%-28s %10s\n", "ZNS span == scalar (exact)",
              zns_span.identical ? "PASS" : "FAIL");

  std::filesystem::create_directories("results");
  const std::string path = "results/BENCH_selfperf.json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"batch_tasks\": %zu,\n"
                 "  \"jobs\": %u,\n"
                 "  \"hardware_threads\": %u,\n"
                 "  \"serial_seconds\": %.6f,\n"
                 "  \"parallel_seconds\": %.6f,\n"
                 "  \"serial_sims_per_sec\": %.4f,\n"
                 "  \"parallel_sims_per_sec\": %.4f,\n",
                 kTasks, jobs, exec::default_jobs(), serial.seconds,
                 parallel.seconds, serial_rate, parallel_rate);
    if (single_core) {
      // One core: both batches time-share it, so the ratio measures the OS
      // scheduler, not the executor.  Null plus an explicit reason beats a
      // misleading 1.0x.
      std::fprintf(f, "  \"speedup\": null,\n"
                      "  \"reason\": \"single-core\",\n");
    } else {
      std::fprintf(f, "  \"speedup\": %.4f,\n", speedup);
    }
    std::fprintf(f,
                 "  \"parallel_equals_serial\": %s,\n"
                 "  \"quick\": %s,\n"
                 "  \"micro\": {\n"
                 "    \"availability_queries_per_sec\": %.0f,\n"
                 "    \"ftl_writes_per_sec\": %.0f,\n"
                 "    \"ftl_remounts_per_sec\": %.2f,\n"
                 "    \"ftl_scalar_pages_per_sec\": %.0f,\n"
                 "    \"ftl_span_pages_per_sec\": %.0f,\n"
                 "    \"ftl_span_speedup\": %.4f,\n"
                 "    \"ftl_span_equals_scalar\": %s,\n"
                 "    \"zns_scalar_pages_per_sec\": %.0f,\n"
                 "    \"zns_span_pages_per_sec\": %.0f,\n"
                 "    \"zns_span_speedup\": %.4f,\n"
                 "    \"zns_span_equals_scalar\": %s\n"
                 "  }\n"
                 "}\n",
                 identical ? "true" : "false", quick ? "true" : "false",
                 avail_qps, ftl.writes_per_sec, ftl.remounts_per_sec,
                 ftl_span.scalar_pages_per_sec, ftl_span.span_pages_per_sec,
                 ftl_span.speedup(), ftl_span.identical ? "true" : "false",
                 zns_span.scalar_pages_per_sec, zns_span.span_pages_per_sec,
                 zns_span.speedup(), zns_span.identical ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::printf("\ncould not write %s\n", path.c_str());
  }

  const bool spans_exact = ftl_span.identical && zns_span.identical;
  std::printf(
      "\nthe speedup targets (>= 4x batch at --jobs 8, >= 3x span writes) "
      "are\nmachine-dependent; the exact-equality checks are the gate on "
      "any machine.  %s\n",
      (identical && spans_exact) ? "PASS" : "FAIL");
  return (identical && spans_exact) ? 0 : 1;
}
