// Crash-point sweep: power-loss at every K-th event boundary, recover,
// assert host-identical output.
//
// For each application the harness runs once fault-free to fix the
// reference output digest, then re-runs with the PowerLoss site armed to
// fire exactly once — at boundary 0, K, 2K, … — until the program finishes
// before the armed boundary.  Every crashed run must
//   1. produce a byte-identical output digest (the engine restarted the
//      lost offloaded work, nothing was skipped or double-applied);
//   2. leave the remounted FTL with every invariant intact
//      (journal/checkpoint replay + OOB tail scan rebuilt a consistent map);
//   3. keep the recovery overhead bounded (downtime + remount + re-staging
//      stays a small multiple of the power-cycle cost, never a re-run).
#include <cstdio>
#include <string>

#include "apps/registry.hpp"
#include "baseline/baselines.hpp"
#include "bench/bench_util.hpp"
#include "exec/cli.hpp"
#include "recovery/recovery.hpp"
#include "system/model.hpp"

namespace {

constexpr std::uint64_t kMinCrashPoints = 50;

/// Recovery overhead bound per crash: power-cycle downtime plus remount
/// media reads is the floor; re-staging inputs and the code image rides on
/// top.  A multiple of the fault-free total catches runaway re-execution.
constexpr double kRecoverySlack = 0.5;

bool sweep_app(const std::string& app_name, std::uint64_t stride,
               unsigned jobs,
               std::uint64_t min_points = kMinCrashPoints) {
  using namespace isp;
  apps::AppConfig config;
  const auto program = apps::make_app(app_name, config);

  system::SystemModel plan_system;
  const auto oracle = baseline::programmer_directed_plan(plan_system, program);

  recovery::CrashSweepOptions options;
  options.stride = stride;
  options.jobs = jobs;
  const auto sweep = recovery::crash_sweep(program, oracle.best, options);

  std::uint64_t mismatches = 0;
  std::uint64_t broken_ftl = 0;
  for (const auto& p : sweep.points) {
    if (!p.output_matches) ++mismatches;
    if (!p.ftl_invariants_ok) ++broken_ftl;
  }
  const bool enough = sweep.points.size() >= min_points;
  const bool bounded =
      sweep.worst_recovery().value() <=
      sweep.reference_total.value() * kRecoverySlack;
  const bool ok = enough && mismatches == 0 && broken_ftl == 0 && bounded;

  std::printf(
      "%-14s stride %2llu: %4zu crash points, %llu digest mismatches, "
      "%llu FTL violations, worst recovery %.4f s (ref %.3f s)  %s\n",
      app_name.c_str(), static_cast<unsigned long long>(stride),
      sweep.points.size(), static_cast<unsigned long long>(mismatches),
      static_cast<unsigned long long>(broken_ftl),
      sweep.worst_recovery().value(), sweep.reference_total.value(),
      ok ? "PASS" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace isp;
  exec::reject_unknown_flags(argc, argv, {"--jobs"}, {"--quick"});
  const unsigned jobs = exec::jobs_from_args(argc, argv);
  // --quick: one app, coarse stride (sanitizer CI).
  const bool quick = exec::flag_present(argc, argv, "--quick");
  bench::print_header(
      "Crash-point sweep: power loss at every event boundary, recover, "
      "verify");
  std::printf("each crashed run must match the fault-free output digest and "
              "remount a\nconsistent FTL; >= %llu crash points per app\n\n",
              static_cast<unsigned long long>(quick ? 10 : kMinCrashPoints));

  bool ok = true;
  if (quick) {
    ok &= sweep_app("tpch-q6", 12, jobs, 10);
  } else {
    ok &= sweep_app("tpch-q6", 2, jobs);
    ok &= sweep_app("kmeans", 4, jobs);
    ok &= sweep_app("blackscholes", 3, jobs);
  }

  std::printf("\n%s\n", ok ? "ALL PASS" : "FAILURES ABOVE");
  return ok ? 0 : 1;
}
