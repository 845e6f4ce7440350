// Equation 1 ablation (DESIGN.md E7): the analytic net-profit surface.
//
// Sweeps the two quantities Equation 1 trades off — the data-reduction
// factor DS_processed/DS_raw and the device/host compute ratio
// CT_device/CT_host — on the paper's platform constants (5 GB/s link,
// 9 GB/s internal NAND), and prints where offload is profitable.  The second
// table verifies consistency: for every Table-I application, each region set
// chosen by Algorithm 1 must have positive measured profit versus host-only.
#include <cstdio>
#include <vector>

#include "apps/registry.hpp"
#include "baseline/baselines.hpp"
#include "bench/bench_util.hpp"
#include "exec/cli.hpp"
#include "exec/pool.hpp"
#include "plan/equation1.hpp"

int main(int argc, char** argv) {
  using namespace isp;
  exec::reject_unknown_flags(argc, argv, {"--jobs"});
  const unsigned jobs = exec::jobs_from_args(argc, argv);

  bench::print_header(
      "Equation 1: net profit S (seconds) for a 6.9 GB task, CT_host = 5 s");
  const Bytes ds_raw = gigabytes(6.9);
  const Seconds ct_host{5.0};
  const auto bw = gb_per_s(5.0);
  const auto nand = gb_per_s(9.0);

  const std::vector<double> reductions = {0.01, 0.1, 0.25, 0.5, 0.75, 1.0};
  const std::vector<double> compute_ratios = {0.6, 0.8, 1.0, 1.2, 1.5, 2.0};

  std::printf("%-18s", "CTdev/CThost \\ red");
  for (const auto r : reductions) std::printf(" %8.2f", r);
  std::printf("\n");
  bench::print_rule();
  for (const auto c : compute_ratios) {
    std::printf("%-18.2f", c);
    for (const auto r : reductions) {
      // CT_device includes the internal flash read of the raw input.
      const plan::Eq1Terms terms{
          .ds_raw = ds_raw,
          .ct_host = ct_host,
          .ct_device = ct_host * c + ds_raw / nand,
          .ds_processed = scale(ds_raw, r),
          .bw_d2h = bw};
      std::printf(" %+8.2f", plan::net_profit(terms).value());
    }
    std::printf("\n");
  }

  bench::print_header(
      "Consistency: measured profit of each application's chosen region set");
  std::printf("%-14s %12s %12s %10s\n", "app", "host-only", "with ISP",
              "S (s)");
  bench::print_rule();
  bool all_positive = true;
  // One independent oracle run per Table-I app: fan out, print in table
  // order (run_batch keeps results in submission order).
  struct Row {
    double host_only = 0.0;
    double best = 0.0;
  };
  const auto& table_apps = apps::table1_apps();
  const auto rows = exec::run_batch(
      table_apps.size(),
      [&](std::size_t i) {
        apps::AppConfig config;
        const auto program = apps::make_app(table_apps[i].name, config);
        system::SystemModel system;
        const auto oracle =
            baseline::programmer_directed_plan(system, program);
        return Row{oracle.host_only_latency.value(),
                   oracle.best_latency.value()};
      },
      jobs);
  for (std::size_t i = 0; i < table_apps.size(); ++i) {
    const double s = rows[i].host_only - rows[i].best;
    all_positive = all_positive && (s >= 0.0);
    std::printf("%-14s %11.2fs %11.2fs %+9.2fs\n",
                table_apps[i].name.c_str(), rows[i].host_only, rows[i].best,
                s);
  }
  bench::print_rule();
  std::printf("every chosen region set profitable: %s\n",
              all_positive ? "yes" : "NO");
  return 0;
}
