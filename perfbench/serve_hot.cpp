// Workload `serve_hot`: saturated multi-tenant serving.
//
// Each iteration is one serve() call followed by the three exporters
// (to_fleet_trace, metrics_json, ServeReport::to_json).  The fleet mixes FTL
// and ZNS devices, three weighted-fair tenants (weights 1/2/4) offer about
// 1.3x the fleet's capacity, and the job classes are two fault-free read
// classes plus one small persisting class.  The inputs share almost
// everything, so the engine-run memo cache and the Eq.1 bid cache absorb
// all but a few dozen engine runs: admission, fair queueing, bidding, the
// result fold and the obs export do the work.  There is no device kill (see
// README.md: serve() stops dispatching after a death under saturation).
// The seed picks the arrival process.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/digest.hpp"
#include "serve/observe.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kJobs = 100'000;
constexpr std::size_t kDevices = 8;
constexpr unsigned kWorkers = 2;
/// Completed jobs per virtual second of this fleet and job mix when every
/// queue stays full (measured with an offered load far above capacity).
constexpr double kCapacity = 4.7;
constexpr double kOverload = 1.3;

isp::serve::ServeConfig build_config(std::uint64_t variant) {
  using namespace isp;
  serve::ServeConfig config;
  config.fleet = serve::FleetConfig::make(kDevices, 1, 0.0,
                                          serve::BackendMix::Mixed);
  config.tenants.clear();
  for (std::size_t t = 0; t < 3; ++t) {
    serve::TenantConfig tc;
    tc.weight = static_cast<double>(1ULL << t);  // 1, 2, 4
    tc.queue_depth = 32;
    config.tenants.push_back(tc);
  }
  config.job_classes = {
      serve::JobClass{.app = "tpch-q6", .size_factor = 0.2},
      serve::JobClass{.app = "kmeans", .size_factor = 0.05},
      serve::JobClass{.app = "tpch-q6", .size_factor = 0.02, .persist = true}};
  config.total_jobs = kJobs;
  config.offered_load = kOverload * kCapacity;
  config.seed = 1000 + variant;
  config.jobs = kWorkers;
  config.obs.enabled = true;

  // The fleet description must build a fleet.  The job classes' programs
  // are not built here: serve() builds and validates them on every call,
  // and generating their data made this set-up time follow the host's
  // memory speed rather than the code.
  if (serve::Fleet(config.fleet).device_count() != kDevices) {
    throw std::runtime_error("fleet built with the wrong device count");
  }
  return config;
}

struct Outputs {
  std::uint64_t report = 0;
  std::uint64_t metrics_registry = 0;
  std::uint64_t trace = 0;
  std::uint64_t metrics_json = 0;
  std::uint64_t json = 0;
  bool operator==(const Outputs&) const = default;
};

struct Work {
  std::uint64_t engine_runs = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t bid_hits = 0;
  std::uint64_t bid_misses = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t host_pages = 0;
  std::uint64_t internal_pages = 0;
  std::uint64_t resets = 0;
  std::uint64_t trace_bytes = 0;
  bool operator==(const Work&) const = default;
};

/// The accounting identities a finished, kill-free serve run must satisfy.
std::string conservation_error(const isp::serve::ServeReport& r,
                               std::uint64_t total_jobs) {
  if (r.outcomes.size() != total_jobs) return "outcome count != offered";
  if (r.admitted + r.rejected + r.deadline_rejected != total_jobs) {
    return "offered != admitted + rejected";
  }
  if (r.admitted != r.completed + r.deadline_missed + r.retry_exhausted) {
    return "admitted != completed + missed + exhausted";
  }
  if (r.csd_jobs + r.host_jobs != r.completed) {
    return "csd_jobs + host_jobs != completed";
  }
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  for (const auto& o : r.outcomes) {
    completed += o.completed() ? 1 : 0;
    rejected += o.rejected ? 1 : 0;
  }
  if (completed != r.completed || rejected != r.rejected) {
    return "outcome flags disagree with the report totals";
  }
  return {};
}

}  // namespace

Result run_serve_hot(const Options& options) {
  const std::uint64_t variant = options.seed % kVariants;
  SetupTimes setup(options.seconds, kSetupSamples);
  const auto build = [&] { return build_config(variant); };
  const isp::serve::ServeConfig config = setup.measure(build);

  Result result;
  Outputs expected;
  Work first_work;
  BestTimes best;  // untraced

  // One serve() call plus the exports; returns its wall seconds.
  auto iterate = [&](std::uint64_t iteration, Tracer* tracer) {
    if (tracer) tracer->set_iteration(iteration);
    const auto t0 = Clock::now();
    Scope whole(tracer, "serve.iteration");
    isp::serve::ServeReport report;
    // Units: the serve() call and each exporter.
    auto mark = t0;
    auto lap = [&](std::size_t unit) {
      const auto now = Clock::now();
      if (tracer == nullptr) best.add(unit, seconds_between(mark, now));
      mark = now;
    };
    {
      Scope s(tracer, "serve.call");
      report = isp::serve::serve(config);
    }
    lap(0);
    std::string trace;
    {
      Scope s(tracer, "obs.trace");
      trace = isp::serve::to_fleet_trace(report);
    }
    lap(1);
    std::string metrics;
    {
      Scope s(tracer, "obs.metrics");
      metrics = isp::serve::metrics_json(report);
    }
    lap(2);
    std::string json;
    {
      Scope s(tracer, "obs.json");
      json = report.to_json();
    }
    lap(3);
    const double wall = seconds_since(t0);

    const Outputs out{report.digest, report.metrics.digest(),
                      isp::fnv1a(isp::kFnvOffset, trace),
                      isp::fnv1a(isp::kFnvOffset, metrics),
                      isp::fnv1a(isp::kFnvOffset, json)};
    Work work;
    work.engine_runs = report.sim_cache_misses;
    work.memo_hits = report.sim_cache_hits;
    work.bid_hits = report.bid_cache_hits;
    work.bid_misses = report.bid_cache_misses;
    work.completed = report.completed;
    work.rejected = report.rejected;
    for (const auto& lane : report.lanes) {
      work.host_pages += lane.storage_host_pages;
      work.internal_pages += lane.storage_internal_pages;
      work.resets += lane.storage_resets;
    }
    work.trace_bytes = trace.size();

    ++result.attempted;
    const std::string bad = conservation_error(report, config.total_jobs);
    if (!bad.empty()) {
      result.fail("iteration " + std::to_string(iteration) + ": " + bad);
    } else if (iteration == 0) {
      expected = out;
      first_work = work;
    } else if (!(out == expected) || !(work == first_work)) {
      result.fail("iteration " + std::to_string(iteration) +
                  " differs from the first");
    }
    return wall;
  };

  // One untimed warm-up call first: it faults in the few hundred MiB a
  // call touches, which later calls reuse.  Its outputs are the reference.
  (void)iterate(0, nullptr);
  std::vector<double> latencies;  // untraced calls
  std::vector<double> traced_latencies;
  Tracer tracer;
  SpeedProbe probe;
  const std::uint64_t traced = measured_loop(
      options, tracer, probe,
      [&](std::uint64_t i, Tracer* t) {
        const double wall = iterate(i + 1, t);
        (t ? traced_latencies : latencies).push_back(wall);
      },
      [&](double elapsed) {
        if (setup.due(elapsed)) setup.remeasure(build);
      });
  const double scale = probe.scale();
  probe.log();

  result.digests = {{"report", hex64(expected.report)},
                    {"metrics_registry", hex64(expected.metrics_registry)},
                    {"fleet_trace", hex64(expected.trace)},
                    {"metrics_json", hex64(expected.metrics_json)},
                    {"report_json", hex64(expected.json)}};
  result.counters = {{"engine_runs", first_work.engine_runs},
                     {"memo_hits", first_work.memo_hits},
                     {"bid_hits", first_work.bid_hits},
                     {"bid_misses", first_work.bid_misses},
                     {"completed", first_work.completed},
                     {"rejected", first_work.rejected},
                     {"host_pages", first_work.host_pages},
                     {"internal_pages", first_work.internal_pages},
                     {"resets", first_work.resets},
                     {"trace_bytes", first_work.trace_bytes}};

  if (!options.trace) {
    result.metrics = {
        {"setup_s", scale * setup.median_seconds(), "s"},
        {"work_per_s",
         static_cast<double>(config.total_jobs) / (scale * best.total()),
         "1/s"},
        {"call_p50_ms", 1e3 * scale * best.total(), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    return result;
  }

  if (!options.trace_out.empty() && !tracer.write(options.trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 options.trace_out.c_str());
  }

  const auto self = tracer.self_seconds();
  auto per_iteration = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end()
               ? 0.0
               : scale * it->second / static_cast<double>(traced);
  };
  const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  result.metrics = {
      {"serve.call_s", per_iteration("serve.call"), "s"},
      {"serve.engine_runs", static_cast<double>(first_work.engine_runs),
       "count"},
      {"serve.memo_hit_ratio",
       ratio(first_work.memo_hits, first_work.engine_runs), "ratio"},
      {"serve.bid_hit_ratio", ratio(first_work.bid_hits, first_work.bid_misses),
       "ratio"},
      {"serve.completed", static_cast<double>(first_work.completed), "count"},
      {"serve.rejected", static_cast<double>(first_work.rejected), "count"},
      {"obs.trace_s", per_iteration("obs.trace"), "s"},
      {"obs.trace_bytes", static_cast<double>(first_work.trace_bytes),
       "bytes"},
      {"obs.metrics_s", per_iteration("obs.metrics"), "s"},
      {"obs.json_s", per_iteration("obs.json"), "s"},
      {"trace.overhead_frac", overhead(traced_latencies, latencies), "ratio"},
  };
  return result;
}

}  // namespace perfbench
