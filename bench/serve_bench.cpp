// Serving harness: the multi-tenant fleet (src/serve/) under four scenarios
// that share one config builder, one identity gate, one conservation check
// and one results file, results/BENCH_serve.json (a section per scenario).
//
//   capacity  offered load x fleet size on weighted tenants: throughput,
//             p50/p99 virtual latency, rejections, CSD share, utilisation.
//   chaos     per fleet size a healthy baseline, then CSD 0 killed for good
//             at fractions of its makespan, then a seeded DeviceFailure
//             rate.  Gate: 1 dead device of 4 costs at most 35% throughput.
//   backend   all-FTL, all-ZNS and mixed fleets on a write-heavy and a
//             read-heavy persisting mix.  Gate: on the write-heavy mix, which
//             must drive host page programs, ZNS charges strictly less
//             device-side reclaim time than FTL (ZCSD's argument).
//   obs       one config with ObsOptions::enabled on and off.  Gate: equal
//             outcome digests.  The best-of-5 wall slowdown has a 5% budget:
//             a breach prints a WARN, and fails under --strict.
//
// Every run also passes the shared gates.  Identity: a re-run at --jobs 1
// has the same report digest, metrics digest and fleet-trace FNV-1a.
// Conservation: total == admitted + rejected + deadline_rejected, admitted ==
// completed + deadline_missed + retry_exhausted, csd_jobs + host_jobs ==
// completed, every lane's write amplification is >= 1, and completed ==
// admitted when the run has no kill, no DeviceFailure rate and no SLO.
//
// stdout is virtual-time only, so it is byte-identical across --jobs values;
// wall-clock times go to stderr and to the obs section of the results file.
//
// Flags (strict parsing, exit 2 on malformed values):
//   --scenario S     capacity|chaos|backend|obs|all                  [all]
//   --jobs N         worker threads for the simulation batches
//   --quick          smaller grids (sanitizer CI)
//   --trace-out P    write the exported run's fleet Perfetto timeline
//   --metrics-out P  write the exported run's metrics + snapshots JSON
//   --strict         a breach of the obs wall budget fails the run
// The exported run is capacity's last grid point under --scenario capacity,
// and chaos's last kill run (its trace holds the device-failure events a CI
// failure upload needs) under --scenario chaos or all.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/digest.hpp"
#include "exec/cli.hpp"
#include "serve/observe.hpp"
#include "serve/server.hpp"

namespace {

using namespace isp;
using Clock = std::chrono::steady_clock;

/// One row of the scenario table: the workload a scenario sweeps.
struct Spec {
  const char* name;
  std::vector<std::size_t> fleets;  // fleet sizes swept
  double skew;                      // per-device CSE availability skew
  std::vector<double> weights;      // one tenant per weight
  std::size_t queue_depth;          // per-tenant admission bound
  std::vector<serve::JobClass> classes;
  std::uint64_t total_jobs;
  std::vector<double> loads;  // offered loads swept, jobs per virtual second
  // Kill schedule: CSD 0 dies at each fraction of the healthy makespan, and
  // a last run arms this DeviceFailure rate instead.
  std::vector<double> kill_fracs = {};
  double fail_rate = 0.0;
};

struct Table {
  Spec capacity, chaos, write_heavy, read_heavy, obs;
};

Table table(bool quick) {
  using serve::JobClass;
  // ~1.7 s and ~2.6 s of virtual service: at 1 job/s the capacity grid
  // straddles the fleet's saturation point.
  const std::vector<JobClass> sweep_mix = {
      JobClass{.app = "tpch-q6", .size_factor = 0.2},
      JobClass{.app = "kmeans", .size_factor = 0.05}};
  // Every class persists its outputs, so each dispatch mounts its dataset
  // and pushes results through the lane's backend.
  const Spec write_heavy{
      .name = "write-heavy", .fleets = {quick ? 3u : 4u}, .skew = 0.0,
      .weights = {1, 2}, .queue_depth = 16,
      .classes = {JobClass{.app = "tpch-q6", .size_factor = 0.1,
                           .persist = true},
                  JobClass{.app = "kmeans", .size_factor = 0.08,
                           .persist = true}},
      .total_jobs = quick ? 12u : 24u, .loads = {quick ? 6.0 : 8.0}};
  // One small persisting class rides along a read-dominated mix, so the
  // backends engage lightly.
  Spec read_heavy = write_heavy;
  read_heavy.name = "read-heavy";
  read_heavy.classes = {
      JobClass{.app = "tpch-q6", .size_factor = 0.1},
      JobClass{.app = "kmeans", .size_factor = 0.05},
      JobClass{.app = "tpch-q6", .size_factor = 0.02, .persist = true}};
  return Table{
      .capacity = {.name = "capacity", .fleets = {1, 2, 4}, .skew = 0.05,
                   .weights = {1, 2, 4, 1}, .queue_depth = 8,
                   .classes = sweep_mix, .total_jobs = quick ? 16u : 48u,
                   .loads = quick ? std::vector<double>{1.0}
                                  : std::vector<double>{0.5, 1.0, 2.0}},
      .chaos = {.name = "chaos",
                .fleets = quick ? std::vector<std::size_t>{4}
                                : std::vector<std::size_t>{2, 4},
                .skew = 0.05, .weights = {1, 2, 4}, .queue_depth = 16,
                .classes = sweep_mix, .total_jobs = 48, .loads = {1.0},
                .kill_fracs = quick ? std::vector<double>{0.5}
                                    : std::vector<double>{0.25, 0.5, 0.75},
                .fail_rate = 0.05},
      .write_heavy = write_heavy,
      .read_heavy = read_heavy,
      .obs = {.name = "obs", .fleets = {2}, .skew = 0.05,
              .weights = {1, 2, 4}, .queue_depth = 8,
              .classes = {JobClass{.app = "tpch-q6", .size_factor = 0.1},
                          JobClass{.app = "kmeans", .size_factor = 0.05}},
              .total_jobs = quick ? 16u : 32u, .loads = {1.5}},
  };
}

serve::ServeConfig serve_config(
    const Spec& spec, std::size_t fleet, double load, unsigned jobs,
    serve::BackendMix backend = serve::BackendMix::Ftl) {
  serve::ServeConfig config;
  config.fleet = serve::FleetConfig::make(fleet, 1, spec.skew, backend);
  config.tenants.clear();
  for (const double w : spec.weights) {
    config.tenants.push_back({.weight = w, .queue_depth = spec.queue_depth});
  }
  config.job_classes = spec.classes;
  config.total_jobs = spec.total_jobs;
  config.offered_load = load;
  config.jobs = jobs;
  return config;
}

/// The report digest, the metrics digest and the fleet trace's FNV-1a.
std::array<std::uint64_t, 3> digests_of(const serve::ServeReport& r) {
  return {r.digest, r.metrics.digest(),
          fnv1a(kFnvOffset, serve::to_fleet_trace(r))};
}

bool conserved(const serve::ServeConfig& config,
               const serve::ServeReport& r) {
  bool ok = r.total_jobs == r.admitted + r.rejected + r.deadline_rejected &&
            r.admitted ==
                r.completed + r.deadline_missed + r.retry_exhausted &&
            r.csd_jobs + r.host_jobs == r.completed;
  for (const auto& lane : r.lanes) {
    ok = ok && lane.storage_write_amplification() >= 1.0;
  }
  // Without a kill, a fault rate or an SLO no admitted job is lost or dropped.
  const bool lossless =
      config.kill_devices.empty() && !config.fault.enabled() &&
      std::all_of(config.tenants.begin(), config.tenants.end(),
                  [](const serve::TenantConfig& t) {
                    return t.slo == Seconds::infinity();
                  });
  return ok && (!lossless || r.completed == r.admitted);
}

struct Run {
  serve::ServeReport report;
  bool identical = false;
  bool conserved = false;

  [[nodiscard]] bool ok() const { return identical && conserved; }
};

/// Serve `config`, re-run it at --jobs 1 and apply both shared gates.
Run checked_run(const serve::ServeConfig& config) {
  Run run{.report = serve::serve(config)};
  auto serial_config = config;
  serial_config.jobs = 1;
  const auto serial = serve::serve(serial_config);
  run.identical = digests_of(run.report) == digests_of(serial);
  run.conserved =
      conserved(config, run.report) && conserved(serial_config, serial);
  if (!run.identical) std::printf("FAIL: the --jobs 1 re-run differs\n");
  if (!run.conserved) std::printf("FAIL: conservation broken\n");
  return run;
}

[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

bool write_file(const char* path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  f.close();
  if (f.fail()) {
    std::printf("could not write %s\n", path);
    return false;
  }
  std::fprintf(stderr, "[serve_bench] wrote %s\n", path);
  return true;
}

/// Where the exported run's fleet trace and metrics go (nullptr: nowhere).
struct Exports {
  const char* trace = nullptr;
  const char* metrics = nullptr;
};

bool write_exports(const serve::ServeReport& report, const Exports& out) {
  bool ok = true;
  if (out.trace != nullptr) {
    ok = write_file(out.trace, serve::to_fleet_trace(report));
  }
  if (out.metrics != nullptr) {
    ok = write_file(out.metrics, serve::metrics_json(report)) && ok;
  }
  return ok;
}

/// A scenario's verdict and its results section (a JSON value).
struct Section {
  bool ok = true;
  std::string json;
};

std::string sweep_json(const std::vector<std::string>& rows,
                       const std::string& extra = "") {
  std::string out = "{\"sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += rows[i];
    if (i + 1 < rows.size()) out += ",\n";
  }
  return out + "\n]" + extra + "}";
}

void print_heading(const char* title, const Spec& spec) {
  bench::print_header(title);
  std::printf("%llu jobs per run, %zu tenants, queue depth %zu\n\n",
              static_cast<unsigned long long>(spec.total_jobs),
              spec.weights.size(), spec.queue_depth);
}

Section run_capacity(const Spec& spec, unsigned jobs, const Exports& out) {
  print_heading("Serving capacity: offered load x fleet size, Eq.1 placement",
                spec);
  std::printf("%5s %8s | %5s %5s %8s %9s %9s %7s %6s %6s\n", "fleet", "load",
              "admit", "rej", "thru/s", "p50 s", "p99 s", "rej%", "csd%",
              "util%");
  bench::print_rule();

  Section section;
  std::vector<std::string> rows;
  for (const std::size_t fleet : spec.fleets) {
    for (const double load : spec.loads) {
      const auto run = checked_run(serve_config(spec, fleet, load, jobs));
      const auto& r = run.report;
      double util_sum = 0.0;
      for (std::size_t lane = 0; lane < r.fleet_size; ++lane) {
        util_sum += r.utilization(lane);
      }
      const double csd_share = r.completed > 0
                                   ? static_cast<double>(r.csd_jobs) /
                                         static_cast<double>(r.completed)
                                   : 0.0;
      std::printf("%5zu %8.3f | %5llu %5llu %8.3f %9.4f %9.4f %6.1f%% "
                  "%5.1f%% %5.1f%%\n",
                  fleet, load, static_cast<unsigned long long>(r.admitted),
                  static_cast<unsigned long long>(r.rejected), r.throughput,
                  r.p50_latency.value(), r.p99_latency.value(),
                  100.0 * r.rejection_rate, 100.0 * csd_share,
                  100.0 * (util_sum / static_cast<double>(r.fleet_size)));
      section.ok &= run.ok();
      rows.push_back(r.to_json());
      if (fleet == spec.fleets.back() && load == spec.loads.back()) {
        section.ok &= write_exports(r, out);
      }
    }
  }
  section.json = sweep_json(rows);
  return section;
}

Section run_chaos(const Spec& spec, unsigned jobs, const Exports& out) {
  constexpr double kMaxDegradation = 0.35;  // 1 dead device out of 4
  print_heading("Chaos fleet: permanent device failure x fleet size", spec);
  std::printf("%5s %9s | %5s %5s %5s %5s %5s | %8s %8s %7s | %4s %4s\n",
              "fleet", "kill", "admit", "done", "retry", "lost", "exh",
              "base/s", "thru/s", "degr%", "cons", "det");
  bench::print_rule();

  Section section;
  std::vector<std::string> rows;
  const auto print_row = [](std::size_t fleet, const std::string& kill,
                            const Run& run, const std::string& base,
                            const std::string& degradation) {
    const auto& r = run.report;
    std::printf("%5zu %s | %5llu %5llu %5llu %5llu %5llu | %8s %8.3f "
                "%7s | %4s %4s\n",
                fleet, kill.c_str(),
                static_cast<unsigned long long>(r.admitted),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.retried),
                static_cast<unsigned long long>(r.lost_in_flight),
                static_cast<unsigned long long>(r.retry_exhausted),
                base.c_str(), r.throughput, degradation.c_str(),
                run.conserved ? "ok" : "LEAK", run.identical ? "ok" : "DIFF");
  };
  for (const std::size_t fleet : spec.fleets) {
    // The healthy baseline fixes the kill points and the yardstick.
    const auto base =
        checked_run(serve_config(spec, fleet, spec.loads.front(), jobs));
    section.ok &= base.ok();
    const double base_thru = base.report.throughput;
    for (const double frac : spec.kill_fracs) {
      auto config = serve_config(spec, fleet, spec.loads.front(), jobs);
      const double kill_at = base.report.makespan.seconds() * frac;
      config.kill_devices = {serve::KillDevice{
          .device = 0, .at = SimTime::zero() + Seconds{kill_at}}};
      const auto run = checked_run(config);
      const double degradation =
          base_thru > 0.0 ? 1.0 - run.report.throughput / base_thru : 0.0;
      const bool bounded = fleet != 4 || degradation <= kMaxDegradation;
      if (!bounded) std::printf("FAIL: degradation above the 35%% bound\n");
      section.ok &= run.ok() && bounded;
      print_row(fleet, format("%8.3fs", kill_at), run,
                format("%8.3f", base_thru),
                format("%6.1f%%", 100.0 * degradation));
      rows.push_back(format("{\"kind\": \"kill\", \"fleet\": %zu, "
                            "\"kill_at_s\": %.6f, \"degradation\": %.6f,\n",
                            fleet, kill_at, degradation) +
                     "\"report\": " + run.report.to_json() + "}");
      if (fleet == spec.fleets.back() && frac == spec.kill_fracs.back()) {
        section.ok &= write_exports(run.report, out);
      }
    }
  }

  // The seeded whole-fleet failure schedule: the same gates, no kill list.
  auto config =
      serve_config(spec, spec.fleets.back(), spec.loads.front(), jobs);
  config.fault.set_rate(fault::Site::DeviceFailure, spec.fail_rate);
  const auto run = checked_run(config);
  section.ok &= run.ok();
  print_row(spec.fleets.back(), format("%9s", "seeded"), run, "-", "-");
  rows.push_back(
      format("{\"kind\": \"seeded\", \"fleet\": %zu, \"fail_rate\": %.6f, "
             "\"devices_failed\": %llu,\n",
             spec.fleets.back(), spec.fail_rate,
             static_cast<unsigned long long>(run.report.devices_failed)) +
      "\"report\": " + run.report.to_json() + "}");
  section.json = sweep_json(rows);
  return section;
}

Section run_backend(const Spec& write_heavy, const Spec& read_heavy,
                    unsigned jobs) {
  print_heading("Storage backends: FTL vs ZNS vs mixed fleets", write_heavy);
  std::printf("%11s %7s | %10s %10s %8s %7s | %5s %5s\n", "mix", "fleet",
              "reclaim s", "host pg", "int pg", "wa", "ident", "cons");
  bench::print_rule();

  Section section;
  std::vector<std::string> rows;
  std::array<double, 3> reclaim_s = {};  // write-heavy, by BackendMix
  for (const Spec* mix : {&write_heavy, &read_heavy}) {
    for (const auto arm : {serve::BackendMix::Ftl, serve::BackendMix::Zns,
                           serve::BackendMix::Mixed}) {
      const auto run = checked_run(serve_config(
          *mix, mix->fleets.front(), mix->loads.front(), jobs, arm));
      serve::LaneStats total;  // device-side storage folded over the lanes
      for (const auto& lane : run.report.lanes) {
        total.reclaim_time += lane.reclaim_time;
        total.storage_host_pages += lane.storage_host_pages;
        total.storage_internal_pages += lane.storage_internal_pages;
        total.storage_resets += lane.storage_resets;
      }
      if (mix == &write_heavy) {
        reclaim_s[static_cast<std::size_t>(arm)] = total.reclaim_time.value();
      }
      // The write-heavy mix must genuinely drive the backends.
      const bool driven = mix != &write_heavy || total.storage_host_pages > 0;
      const bool conserved = run.conserved && driven;
      section.ok &= run.identical && conserved;
      std::printf("%11s %7s | %10.4f %10llu %8llu %7.3f | %5s %5s\n",
                  mix->name, serve::to_string(arm), total.reclaim_time.value(),
                  static_cast<unsigned long long>(total.storage_host_pages),
                  static_cast<unsigned long long>(total.storage_internal_pages),
                  total.storage_write_amplification(),
                  run.identical ? "ok" : "DIFF", conserved ? "ok" : "FAIL");
      rows.push_back(format(
          "    {\"mix\": \"%s\", \"fleet\": \"%s\", \"reclaim_s\": %.6f, "
          "\"host_pages\": %llu, \"internal_pages\": %llu, \"resets\": %llu, "
          "\"wa\": %.4f, \"digests_match\": %s, \"conserved\": %s, "
          "\"digest\": \"0x%016llx\"}",
          mix->name, serve::to_string(arm), total.reclaim_time.value(),
          static_cast<unsigned long long>(total.storage_host_pages),
          static_cast<unsigned long long>(total.storage_internal_pages),
          static_cast<unsigned long long>(total.storage_resets),
          total.storage_write_amplification(),
          run.identical ? "true" : "false", conserved ? "true" : "false",
          static_cast<unsigned long long>(run.report.digest)));
    }
  }

  // Append-only ZNS charges strictly less device-side reclaim time than the
  // journaling FTL under the same write-heavy mix.
  const auto ftl = static_cast<std::size_t>(serve::BackendMix::Ftl);
  const auto zns = static_cast<std::size_t>(serve::BackendMix::Zns);
  const bool reclaim_gate = reclaim_s[zns] < reclaim_s[ftl];
  std::printf("\nwrite-heavy device reclaim: ftl %.4fs vs zns %.4fs — %s\n",
              reclaim_s[ftl], reclaim_s[zns],
              reclaim_gate ? "zns strictly lower (pass)" : "GATE FAILED");
  section.ok &= reclaim_gate;
  section.json = sweep_json(rows, std::string(",\n\"reclaim_gate\": ") +
                                      (reclaim_gate ? "true" : "false"));
  return section;
}

Section run_obs(const Spec& spec, unsigned jobs, bool strict) {
  constexpr std::size_t kTrials = 5;
  constexpr double kBudget = 0.05;
  print_heading("Observability overhead: obs on vs off, best-of-5 wall time",
                spec);

  Section section;
  // The checked run warms the profile caches and the thread pool, so the
  // timed trials measure the serving loop, not first-run set-up.
  const auto measure = [&](bool enabled) {
    auto config =
        serve_config(spec, spec.fleets.front(), spec.loads.front(), jobs);
    config.obs.enabled = enabled;
    const auto run = checked_run(config);
    section.ok &= run.ok();
    const std::uint64_t digest = run.report.digest;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < kTrials; ++t) {
      const auto t0 = Clock::now();
      const auto report = serve::serve(config);
      best = std::min(
          best, std::chrono::duration<double>(Clock::now() - t0).count());
      if (report.digest != digest) {
        std::printf("FAIL: digest drifted across repeat runs (obs %s)\n",
                    enabled ? "on" : "off");
        section.ok = false;
      }
    }
    return std::pair{best, digest};
  };
  const auto [wall_on, digest_on] = measure(true);
  const auto [wall_off, digest_off] = measure(false);
  const double slowdown = wall_off > 0.0 ? wall_on / wall_off - 1.0 : 0.0;
  const bool digest_match = digest_on == digest_off;
  const bool within_budget = slowdown <= kBudget;

  // Instrumentation that changes a scheduling decision or a service time
  // breaks the zero-virtual-cost contract: never acceptable.
  std::printf("outcome digest with obs on vs off: %s\n",
              digest_match ? "identical (pass)" : "DIFFERS");
  std::fprintf(stderr,
               "[serve_bench] obs wall: off %.4f s, on %.4f s, slowdown "
               "%.2f%% (budget %.0f%%)%s\n",
               wall_off, wall_on, 100.0 * slowdown, 100.0 * kBudget,
               within_budget ? ""
               : strict      ? " FAIL"
                             : " WARN (wall-clock noise?)");
  if (strict && !within_budget) std::printf("FAIL: obs wall over budget\n");
  section.ok &= digest_match && (within_budget || !strict);
  section.json = format(
      "{\"total_jobs\": %llu, \"trials\": %zu, \"exec_jobs\": %u, "
      "\"wall_off_s\": %.6f, \"wall_on_s\": %.6f, \"slowdown\": %.6f, "
      "\"budget\": %.6f, \"digest_match\": %s, \"within_budget\": %s}",
      static_cast<unsigned long long>(spec.total_jobs), kTrials, jobs,
      wall_off, wall_on, slowdown, kBudget, digest_match ? "true" : "false",
      within_budget ? "true" : "false");
  return section;
}

}  // namespace

int main(int argc, char** argv) {
  exec::reject_unknown_flags(
      argc, argv, {"--scenario", "--jobs", "--trace-out", "--metrics-out"},
      {"--quick", "--strict"});
  const std::vector<const char*> scenarios = {"capacity", "chaos", "backend",
                                              "obs", "all"};
  const std::size_t pick =
      exec::enum_flag(argc, argv, "--scenario", scenarios, 4);
  const unsigned jobs = exec::jobs_from_args(argc, argv);
  const bool quick = exec::flag_present(argc, argv, "--quick");
  const bool strict = exec::flag_present(argc, argv, "--strict");
  const Exports exports{
      .trace = exec::string_flag(argc, argv, "--trace-out", nullptr),
      .metrics = exec::string_flag(argc, argv, "--metrics-out", nullptr)};
  const auto wants = [pick](std::size_t s) { return pick == s || pick == 4; };

  const Table t = table(quick);
  const auto wall0 = Clock::now();
  bool ok = true;
  std::string json;
  const auto add = [&](const char* name, const Section& section) {
    json += (json.empty() ? "{\n\"" : ",\n\"") + std::string(name) +
            "\": " + section.json;
    ok = ok && section.ok;
  };
  if (wants(0)) {
    add("capacity",
        run_capacity(t.capacity, jobs, pick == 0 ? exports : Exports{}));
  }
  if (wants(1)) add("chaos", run_chaos(t.chaos, jobs, exports));
  if (wants(2)) add("backend", run_backend(t.write_heavy, t.read_heavy, jobs));
  if (wants(3)) add("obs", run_obs(t.obs, jobs, strict));
  std::fprintf(stderr, "[serve_bench] wall %.2f s at --jobs %u\n",
               std::chrono::duration<double>(Clock::now() - wall0).count(),
               jobs);

  std::filesystem::create_directories("results");
  ok = write_file("results/BENCH_serve.json", json + "\n}\n") && ok;
  std::printf("\n%s\n", ok ? "ALL PASS" : "FAILURES ABOVE");
  return ok ? 0 : 1;
}
