// Chaos sweep over fleet failure domains: kill-points x fleet sizes.
//
// For each fleet size the harness first measures a healthy baseline, then
// re-runs the identical workload with CSD 0 killed permanently at a sweep of
// virtual-time fractions of the baseline makespan, and gates on the three
// robustness contracts of the serving loop:
//
//   1. Conservation — every offered job resolves exactly once:
//      total == admitted + rejected + deadline_rejected and
//      admitted == completed + deadline_missed + retry_exhausted
//      (the serving loop ISP_CHECKs the same identities internally and at
//      every snapshot row; the bench re-asserts them from the report).
//   2. Determinism — the kill run's digest is byte-identical across
//      --jobs values (each grid point re-runs at --jobs 1 and compares).
//   3. Bounded degradation — killing 1 of 4 devices mid-run costs at most
//      35% of baseline throughput (lost work is retried, queued work
//      re-prices over the survivors and the host lane).
//
// A final section arms the seed-deterministic DeviceFailure *rate* schedule
// (exponential first arrival per device) instead of an explicit kill list,
// checking the same conservation and determinism gates.
//
// Flags (strict parsing, exit 2 on malformed values — the PR 2 convention):
//   --fleet F              largest fleet size in the sweep            [4]
//   --kill-device k@t      explicit kill schedule (repeatable); replaces
//                          the fractional kill-point sweep
//   --retry-budget R       serve-layer retries per lost job           [2]
//   --breaker-threshold X  breaker trip score                         [12]
//   --fleet-skew S         per-device CSE availability skew           [0.05]
//   --deadline S           per-job start deadline in virtual seconds
//                          (0 disables deadlines)                     [0]
//   --fail-rate R          DeviceFailure rate for the seeded section  [0.05]
//   --trace-out P          write the last kill run's fleet timeline
//   --jobs N               worker threads for the simulation batches
//   --quick                one kill point, largest fleet only (CI)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "exec/cli.hpp"
#include "serve/observe.hpp"
#include "serve/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct ChaosKnobs {
  std::uint32_t retry_budget = 2;
  double breaker_threshold = 12.0;
  double fleet_skew = 0.05;
  double slo = 0.0;
  unsigned jobs = 1;
};

isp::serve::ServeConfig make_config(std::size_t fleet,
                                    const ChaosKnobs& knobs) {
  using namespace isp;
  serve::ServeConfig config;
  config.fleet = serve::FleetConfig::make(fleet, 1, knobs.fleet_skew);
  config.tenants.clear();
  for (std::size_t t = 0; t < 3; ++t) {
    serve::TenantConfig tc;
    tc.weight = static_cast<double>(1ULL << t);  // 1, 2, 4
    tc.queue_depth = 16;
    if (knobs.slo > 0.0) tc.slo = Seconds{knobs.slo};
    config.tenants.push_back(tc);
  }
  config.job_classes = {serve::JobClass{.app = "tpch-q6", .size_factor = 0.2},
                        serve::JobClass{.app = "kmeans", .size_factor = 0.05}};
  config.total_jobs = 48;
  config.offered_load = 1.0;
  config.jobs = knobs.jobs;
  config.retry_budget = knobs.retry_budget;
  config.breaker.threshold = knobs.breaker_threshold;
  return config;
}

/// Re-assert the conservation identities straight off the report.
bool conserved(const isp::serve::ServeReport& r) {
  return r.total_jobs ==
             r.admitted + r.rejected + r.deadline_rejected &&
         r.admitted ==
             r.completed + r.deadline_missed + r.retry_exhausted;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace isp;
  ChaosKnobs knobs;
  knobs.jobs = exec::jobs_from_args(argc, argv);
  const bool quick = exec::flag_present(argc, argv, "--quick");
  const auto fleet_max = static_cast<std::size_t>(
      exec::u64_flag(argc, argv, "--fleet", 4, 2, 64));
  knobs.retry_budget = static_cast<std::uint32_t>(
      exec::u64_flag(argc, argv, "--retry-budget", 2, 0, 64));
  knobs.breaker_threshold =
      exec::double_flag(argc, argv, "--breaker-threshold", 12.0, 1e-3, 1e6);
  knobs.fleet_skew =
      exec::double_flag(argc, argv, "--fleet-skew", 0.05, 0.0, 0.33);
  knobs.slo = exec::double_flag(argc, argv, "--deadline", 0.0, 0.0, 1e6);
  const double fail_rate =
      exec::double_flag(argc, argv, "--fail-rate", 0.05, 0.0, 1e3);
  const char* trace_out = exec::string_flag(argc, argv, "--trace-out", nullptr);
  const auto explicit_kills = exec::kill_flags(argc, argv, "--kill-device");

  std::vector<std::size_t> fleets;
  if (!quick) {
    for (std::size_t f = 2; f < fleet_max; f *= 2) fleets.push_back(f);
  }
  fleets.push_back(fleet_max);
  const std::vector<double> kill_fracs =
      quick ? std::vector<double>{0.5}
            : std::vector<double>{0.25, 0.5, 0.75};

  bench::print_header(
      "Chaos fleet: permanent device failure x fleet size, retry + "
      "breaker + conservation gates");
  std::printf("48 jobs per point, retry budget %u, breaker threshold %.1f, "
              "skew %.2f, slo %s\n\n",
              knobs.retry_budget, knobs.breaker_threshold, knobs.fleet_skew,
              knobs.slo > 0.0 ? (std::to_string(knobs.slo) + " s").c_str()
                              : "off");
  std::printf("%5s %9s | %5s %5s %5s %5s %5s | %8s %8s %7s | %4s %4s\n",
              "fleet", "kill", "admit", "done", "retry", "lost", "exh",
              "base/s", "thru/s", "degr%", "cons", "det");
  bench::print_rule();

  const auto wall0 = Clock::now();
  std::vector<std::string> entries;
  bool ok = true;

  for (const std::size_t fleet : fleets) {
    // Healthy baseline fixes the kill points and the degradation yardstick.
    const auto base_config = make_config(fleet, knobs);
    const auto base = serve::serve(base_config);
    ok = ok && conserved(base);

    std::vector<std::vector<serve::KillDevice>> schedules;
    if (!explicit_kills.empty()) {
      std::vector<serve::KillDevice> schedule;
      for (const auto& k : explicit_kills) {
        schedule.push_back(serve::KillDevice{
            .device = k.device, .at = SimTime::zero() + Seconds{k.at}});
      }
      schedules.push_back(std::move(schedule));
    } else {
      for (const double frac : kill_fracs) {
        schedules.push_back({serve::KillDevice{
            .device = 0,
            .at = SimTime::zero() +
                  Seconds{base.makespan.seconds() * frac}}});
      }
    }

    for (const auto& schedule : schedules) {
      auto config = make_config(fleet, knobs);
      config.kill_devices = schedule;
      const auto report = serve::serve(config);

      // Determinism across worker counts: the serial re-run must produce
      // the same digest byte for byte.
      auto serial = config;
      serial.jobs = 1;
      const auto redo = serve::serve(serial);
      const bool deterministic = redo.digest == report.digest;

      const bool conserve_ok = conserved(report);
      const double degradation =
          base.throughput > 0.0
              ? 1.0 - report.throughput / base.throughput
              : 0.0;
      // The headline gate: 1 dead device out of 4 costs at most 35%.
      const bool degr_ok = fleet != 4 || schedule.size() != 1 ||
                           degradation <= 0.35;
      ok = ok && conserve_ok && deterministic && degr_ok;

      std::printf("%5zu %8.3fs | %5llu %5llu %5llu %5llu %5llu | %8.3f "
                  "%8.3f %6.1f%% | %4s %4s\n",
                  fleet, schedule.front().at.seconds(),
                  static_cast<unsigned long long>(report.admitted),
                  static_cast<unsigned long long>(report.completed),
                  static_cast<unsigned long long>(report.retried),
                  static_cast<unsigned long long>(report.lost_in_flight),
                  static_cast<unsigned long long>(report.retry_exhausted),
                  base.throughput, report.throughput, 100.0 * degradation,
                  conserve_ok ? "ok" : "LEAK",
                  deterministic ? "ok" : "DIFF");
      char head[160];
      std::snprintf(head, sizeof(head),
                    "{\"kind\": \"kill\", \"fleet\": %zu, "
                    "\"kill_at_s\": %.6f, \"degradation\": %.6f,\n",
                    fleet, schedule.front().at.seconds(), degradation);
      entries.push_back(std::string(head) + "\"report\": " +
                        report.to_json() + "}");

      // Fleet trace of the last kill run (virtual-time only, so the file
      // is byte-identical across --jobs values) — the CI failure artifact.
      if (trace_out != nullptr && fleet == fleets.back() &&
          &schedule == &schedules.back()) {
        serve::write_fleet_trace(report, trace_out);
        std::fprintf(stderr, "[chaos_fleet] wrote %s\n", trace_out);
      }
    }
  }

  // Seeded whole-fleet failure schedule: same gates, no explicit kill list.
  if (fail_rate > 0.0 && explicit_kills.empty()) {
    auto config = make_config(fleet_max, knobs);
    config.fault.set_rate(fault::Site::DeviceFailure, fail_rate);
    const auto report = serve::serve(config);
    auto serial = config;
    serial.jobs = 1;
    const bool deterministic = serve::serve(serial).digest == report.digest;
    const bool conserve_ok = conserved(report);
    ok = ok && conserve_ok && deterministic;
    std::printf("%5zu %8s | %5llu %5llu %5llu %5llu %5llu | %8s %8.3f "
                "%7s | %4s %4s\n",
                fleet_max, "seeded",
                static_cast<unsigned long long>(report.admitted),
                static_cast<unsigned long long>(report.completed),
                static_cast<unsigned long long>(report.retried),
                static_cast<unsigned long long>(report.lost_in_flight),
                static_cast<unsigned long long>(report.retry_exhausted),
                "-", report.throughput, "-",
                conserve_ok ? "ok" : "LEAK", deterministic ? "ok" : "DIFF");
    char head[160];
    std::snprintf(head, sizeof(head),
                  "{\"kind\": \"seeded\", \"fleet\": %zu, "
                  "\"fail_rate\": %.6f, \"devices_failed\": %llu,\n",
                  fleet_max, fail_rate,
                  static_cast<unsigned long long>(report.devices_failed));
    entries.push_back(std::string(head) + "\"report\": " +
                      report.to_json() + "}");
  }

  const double wall =
      std::chrono::duration<double>(Clock::now() - wall0).count();

  std::filesystem::create_directories("results");
  const std::string path = "results/BENCH_chaos.json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"sweep\": [\n");
    for (std::size_t i = 0; i < entries.size(); ++i) {
      std::fputs(entries[i].c_str(), f);
      if (i + 1 < entries.size()) std::fputs(",\n", f);
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::printf("\ncould not write %s\n", path.c_str());
    ok = false;
  }

  std::fprintf(stderr, "[chaos_fleet] wall %.2f s at --jobs %u\n", wall,
               knobs.jobs);
  std::printf("\n%s\n", ok ? "ALL PASS" : "FAILURES ABOVE");
  return ok ? 0 : 1;
}
