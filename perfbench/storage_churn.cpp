// Workload `storage_churn`: the storage data plane on its own.
//
// One FTL and one ZNS device, journalling on, with production-shaped blocks
// (256 pages of 16 KiB), are driven through the flash::StorageBackend seam
// from a seeded op stream: a sequential fill, then a fixed mix of extent
// overwrites (past the GC/reclaim watermark), trims and reads, with a power
// loss and remount every kCycleEvery ops.  Every extent moved also goes
// through DmaEngine::transfer_span, one chunk per page.  Nothing above
// storage runs.  Each iteration starts from fresh devices.
//
// After every remount the benchmark (untimed) runs check_invariants() and
// verifies that every page written and not trimmed since still maps.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "flash/ftl.hpp"
#include "interconnect/dma.hpp"
#include "zns/zns.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kFillExtent = 256;
constexpr std::uint64_t kMixOps = 30'000;
// At least one FTL checkpoint fold must fall between two power cuts: the
// FTL loses OOB-rescued pages on a second cut before the next fold (see
// README.md, "Defects found while sizing").  3000 mixed ops journal about
// 97k page updates, more than the 64 x 1024 that force a fold.
constexpr std::uint64_t kCycleEvery = 3'000;
constexpr std::uint64_t kMaxExtent = 128;

isp::flash::NandGeometry geometry() {
  isp::flash::NandGeometry g;
  g.channels = 4;
  g.dies_per_channel = 2;
  g.blocks_per_die = 32;
  g.pages_per_block = 256;
  g.page_bytes = isp::Bytes{16 * 1024};
  return g;
}

isp::flash::FtlConfig ftl_config() {
  isp::flash::FtlConfig c;
  c.geometry = geometry();
  c.journal.enabled = true;
  return c;
}

isp::zns::ZnsConfig zns_config() {
  isp::zns::ZnsConfig c;
  c.geometry = geometry();
  c.zone_blocks = 4;
  c.journal.enabled = true;
  return c;
}

enum class Kind : std::uint8_t { Write, Trim, Read, Cycle };

struct Op {
  Kind kind = Kind::Write;
  std::uint64_t first = 0;
  std::uint64_t count = 0;
};

/// A backend's op stream plus, for each power cycle in it, the pages that
/// must still map after the remount (written and not trimmed since).
struct Stream {
  std::vector<Op> ops;
  std::vector<std::vector<bool>> live_at_cycle;
};

/// Fill, then the mixed stream (50% overwrite, 35% read, 15% trim of
/// random extents), with a power cycle after every kCycleEvery mixed ops.
Stream build_stream(std::uint64_t logical, std::uint64_t variant,
                    std::uint64_t salt) {
  Stream stream;
  auto& ops = stream.ops;
  ops.reserve(logical / kFillExtent + kMixOps + kMixOps / kCycleEvery + 2);
  std::vector<bool> live(logical, false);
  auto set_live = [&](const Op& op, bool value) {
    for (std::uint64_t i = 0; i < op.count; ++i) live[op.first + i] = value;
  };
  for (std::uint64_t first = 0; first < logical; first += kFillExtent) {
    ops.push_back({Kind::Write, first, std::min(kFillExtent, logical - first)});
    set_live(ops.back(), true);
  }
  std::uint64_t state = 0x73746f72ULL * (variant + 1) + salt;
  for (std::uint64_t i = 0; i < kMixOps; ++i) {
    const std::uint64_t count = 1 + mix64(state) % kMaxExtent;
    const std::uint64_t first = mix64(state) % (logical - count + 1);
    const std::uint64_t pick = mix64(state) % 100;
    const Kind kind = pick < 50 ? Kind::Write : pick < 85 ? Kind::Read
                                                          : Kind::Trim;
    ops.push_back({kind, first, count});
    if (kind != Kind::Read) set_live(ops.back(), kind == Kind::Write);
    if ((i + 1) % kCycleEvery == 0) {
      ops.push_back({Kind::Cycle, 0, 0});
      stream.live_at_cycle.push_back(live);
    }
  }
  return stream;
}

/// Span names per backend (string literals, so the tracer interns them by
/// pointer).
struct Names {
  const char* device;
  const char* write;
  const char* trim;
  const char* read;
  const char* remount;
};
constexpr std::array<Names, 2> kNames = {
    Names{"flash.device", "flash.write", "flash.trim", "flash.read",
          "flash.remount"},
    Names{"zns.device", "zns.write", "zns.trim", "zns.read", "zns.remount"}};

std::unique_ptr<isp::flash::StorageBackend> make_device(std::size_t b) {
  if (b == 0) return std::make_unique<isp::flash::Ftl>(ftl_config());
  return std::make_unique<isp::zns::ZnsDevice>(zns_config());
}

/// What one backend did in one iteration.
struct Work {
  isp::flash::StorageCounters counters;
  std::uint64_t pages = 0;  // host pages written + read + trimmed
  std::uint64_t remounts = 0;
  std::uint64_t dma_chunks = 0;
  std::uint64_t digest = 0;  // final mapping + DMA clock

  bool operator==(const Work& o) const {
    const auto& a = counters;
    const auto& b = o.counters;
    return a.host_pages == b.host_pages && a.reclaim_pages == b.reclaim_pages &&
           a.meta_pages == b.meta_pages && a.resets == b.resets &&
           a.reclaim_events == b.reclaim_events &&
           a.recoveries == b.recoveries && pages == o.pages &&
           remounts == o.remounts && dma_chunks == o.dma_chunks &&
           digest == o.digest;
  }
};

/// Host ops per timing unit.  A unit of a few dozen extent ops lasts tens
/// of microseconds, short enough that most of its runs see no interference.
constexpr std::size_t kChunkOps = 64;

struct Timing {
  double busy = 0.0;               // ops + remounts, checks excluded
  std::vector<double> iterations;  // busy seconds of each iteration
  /// Untraced iterations only, per backend: the fastest time of each chunk
  /// of kChunkOps host ops between power cycles, and of each
  /// power_loss() + recover(), by its place in the stream.
  std::array<BestTimes, 2> chunks;
  std::array<BestTimes, 2> remounts;

  /// An iteration with every unit at its fastest.
  [[nodiscard]] double best_iteration() const {
    return chunks[0].total() + chunks[1].total() + remounts[0].total() +
           remounts[1].total();
  }
  /// Fastest seconds to remount the FTL and the ZNS device at the same
  /// point of their streams: one value per power cycle of the pair.
  [[nodiscard]] std::vector<double> best_pair_remounts() const {
    const auto& ftl = remounts[0].units();
    const auto& zns = remounts[1].units();
    std::vector<double> out(std::min(ftl.size(), zns.size()));
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = ftl[i] + zns[i];
    return out;
  }
};

/// Run one backend's stream on a fresh device.  Returns the check failure,
/// or an empty string.
std::string churn(std::size_t b, const Stream& stream, Tracer* tracer,
                  Work& work, Timing& timing) {
  using namespace isp;
  const Names& n = kNames[b];
  auto device = make_device(b);
  flash::StorageBackend& dev = *device;
  interconnect::Link link(interconnect::LinkConfig{});
  interconnect::DmaEngine dma(link);
  const Bytes page = geometry().page_bytes;
  SimTime clock;
  std::string error;

  Scope whole(tracer, n.device);
  auto t = Clock::now();
  auto chunk_start = t;
  std::size_t chunk = 0;
  std::size_t in_chunk = 0;
  auto close_chunk = [&](Clock::time_point now) {
    if (in_chunk > 0) {
      if (tracer == nullptr) {
        timing.chunks[b].add(chunk, seconds_between(chunk_start, now));
      }
      ++chunk;
      in_chunk = 0;
    }
    chunk_start = now;
  };
  for (const Op& op : stream.ops) {
    if (in_chunk == kChunkOps) close_chunk(Clock::now());
    switch (op.kind) {
      case Kind::Write: {
        {
          Scope s(tracer, n.write);
          dev.write_span(op.first, op.count);
        }
        {
          Scope s(tracer, "interconnect.span");
          clock = dma.transfer_span(clock, page, op.count,
                                    interconnect::TransferKind::Intermediate);
        }
        work.pages += op.count;
        ++in_chunk;
        break;
      }
      case Kind::Trim: {
        {
          Scope s(tracer, n.trim);
          dev.trim_span(op.first, op.count);
        }
        work.pages += op.count;
        ++in_chunk;
        break;
      }
      case Kind::Read: {
        std::uint64_t mapped = 0;
        {
          Scope s(tracer, n.read);
          mapped = dev.read_span(op.first, op.count, nullptr);
        }
        if (mapped > 0) {
          Scope s(tracer, "interconnect.span");
          clock = dma.transfer_span(clock, page, mapped,
                                    interconnect::TransferKind::RawInput);
        }
        work.pages += op.count;
        ++in_chunk;
        break;
      }
      case Kind::Cycle: {
        const auto r0 = Clock::now();
        close_chunk(r0);
        {
          Scope s(tracer, n.remount);
          (void)dev.power_loss();
          (void)dev.recover();
        }
        const auto r1 = Clock::now();
        if (tracer == nullptr) {
          timing.remounts[b].add(work.remounts, seconds_between(r0, r1));
        }
        timing.busy += seconds_between(t, r1);
        // Untimed checks.
        const auto& live = stream.live_at_cycle[work.remounts++];
        try {
          dev.check_invariants();
        } catch (const isp::Error& e) {
          if (error.empty()) error = std::string("invariants: ") + e.what();
        }
        for (std::uint64_t lpn = 0; lpn < live.size(); ++lpn) {
          if (live[lpn] && !dev.translate(lpn) && error.empty()) {
            error = "live lpn " + std::to_string(lpn) + " lost at remount";
          }
        }
        t = Clock::now();
        chunk_start = t;
        break;
      }
    }
  }
  const auto done = Clock::now();
  close_chunk(done);
  timing.busy += seconds_between(t, done);

  work.counters = dev.counters();
  for (const auto n_transfers : dma.stats().transfers) {
    work.dma_chunks += n_transfers;
  }
  std::vector<flash::Ppn> ppns;
  const std::uint64_t mapped = dev.read_span(0, dev.logical_pages(), &ppns);
  std::uint64_t h = fnv1a(kFnvOffset, mapped);
  for (const auto p : ppns) h = fnv1a(h, p);
  work.digest = fnv1a(h, double_bits(clock.seconds()));
  return error;
}

}  // namespace

Result run_storage_churn(const Options& options) {
  const std::uint64_t variant = options.seed % kVariants;
  SetupTimes setup(options.seconds, kSetupSamples);
  const auto build = [&] {
    std::array<Stream, 2> streams;
    for (std::size_t b = 0; b < 2; ++b) {
      streams[b] = build_stream(make_device(b)->logical_pages(), variant, b);
    }
    return streams;
  };
  const std::array<Stream, 2> streams = setup.measure(build);

  Result result;
  std::array<Work, 2> first{};

  Timing untraced;
  Timing traced;
  auto iterate = [&](std::uint64_t iteration, Tracer* tracer) {
    if (tracer) tracer->set_iteration(iteration);
    Timing& timing = tracer ? traced : untraced;
    std::array<Work, 2> work{};
    std::string error;
    const double busy_before = timing.busy;
    for (std::size_t b = 0; b < 2; ++b) {
      const std::string e = churn(b, streams[b], tracer, work[b], timing);
      if (error.empty() && !e.empty()) error = kNames[b].device + (": " + e);
    }
    timing.iterations.push_back(timing.busy - busy_before);
    ++result.attempted;
    if (!error.empty()) {
      result.fail("iteration " + std::to_string(iteration) + ", " + error);
      return;
    }
    if (iteration == 0) {
      first = work;
    } else if (!(work[0] == first[0]) || !(work[1] == first[1])) {
      result.fail("iteration " + std::to_string(iteration) +
                  " work differs from the first");
    }
  };

  Tracer tracer;
  SpeedProbe probe;
  const std::uint64_t traced_iterations =
      measured_loop(options, tracer, probe, iterate, [&](double elapsed) {
        if (setup.due(elapsed)) setup.remeasure(build);
      });
  const double scale = probe.scale();
  probe.log();

  for (std::size_t b = 0; b < 2; ++b) {
    const std::string p = b == 0 ? "ftl." : "zns.";
    const auto& w = first[b];
    result.counters[p + "host_pages"] = w.counters.host_pages;
    result.counters[p + "reclaim_pages"] = w.counters.reclaim_pages;
    result.counters[p + "meta_pages"] = w.counters.meta_pages;
    result.counters[p + "resets"] = w.counters.resets;
    result.counters[p + "reclaim_events"] = w.counters.reclaim_events;
    result.counters[p + "remounts"] = w.remounts;
    result.counters[p + "dma_chunks"] = w.dma_chunks;
    result.counters[p + "pages"] = w.pages;
    result.digests[p + "state"] = hex64(w.digest);
  }

  if (!options.trace) {
    result.metrics = {
        {"setup_s", scale * setup.median_seconds(), "s"},
        {"work_per_s",
         static_cast<double>(first[0].pages + first[1].pages) /
             (scale * untraced.best_iteration()),
         "1/s"},
        {"call_p50_ms", 1e3 * scale * median(untraced.best_pair_remounts()),
         "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    return result;
  }

  if (!options.trace_out.empty() && !tracer.write(options.trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 options.trace_out.c_str());
  }

  const auto self = tracer.self_seconds();
  const auto per_iteration = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end()
               ? 0.0
               : scale * it->second / static_cast<double>(traced_iterations);
  };
  for (std::size_t b = 0; b < 2; ++b) {
    const std::string p = b == 0 ? "flash." : "zns.";
    const auto& w = first[b];
    result.metrics.push_back({p + "write_s", per_iteration(kNames[b].write), "s"});
    result.metrics.push_back({p + "trim_s", per_iteration(kNames[b].trim), "s"});
    result.metrics.push_back({p + "read_s", per_iteration(kNames[b].read), "s"});
    result.metrics.push_back(
        {p + "remount_s", per_iteration(kNames[b].remount), "s"});
    result.metrics.push_back(
        {p + "wa", w.counters.write_amplification(), "ratio"});
    result.metrics.push_back({p + "reclaim_pages",
                              static_cast<double>(w.counters.reclaim_pages),
                              "count"});
  }
  result.metrics.push_back(
      {"interconnect.span_s", per_iteration("interconnect.span"), "s"});
  result.metrics.push_back({"interconnect.chunks",
                            static_cast<double>(first[0].dma_chunks +
                                                first[1].dma_chunks),
                            "count"});
  result.metrics.push_back(
      {"trace.overhead_frac", overhead(traced.iterations, untraced.iterations),
       "ratio"});
  return result;
}

}  // namespace perfbench
