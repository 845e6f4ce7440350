// Dataset-scaling ablation: where does ISP start paying?
//
// Equation 1's profit scales with the raw volume while ActiveCpp's fixed
// costs (sampling, code generation, call overheads) do not, so there is a
// dataset size below which the framework correctly leaves everything on the
// host.  This sweep scales the Table-I datasets from 1/32x to 2x and reports
// the plan and speedup at every size — the "who wins, where is the
// crossover" curve for the system as a whole.
#include <cstdio>
#include <vector>

#include "apps/registry.hpp"
#include "baseline/baselines.hpp"
#include "bench/bench_util.hpp"
#include "exec/cli.hpp"
#include "exec/pool.hpp"
#include "runtime/active_runtime.hpp"

int main(int argc, char** argv) {
  using namespace isp;
  exec::reject_unknown_flags(argc, argv, {"--jobs"});
  const unsigned jobs = exec::jobs_from_args(argc, argv);

  const std::vector<double> factors = {1.0 / 32, 1.0 / 8, 1.0 / 4,
                                       1.0 / 2,  1.0,     2.0};
  for (const char* name : {"tpch-q6", "kmeans", "matrixmul"}) {
    bench::print_header(std::string("Dataset scaling: ") + name);
    std::printf("%-10s %12s %12s %10s %8s %12s\n", "scale", "data", "baseline",
                "activecpp", "csd", "sampling");
    bench::print_rule();
    // Each size factor is an independent pair of simulations (host-only
    // baseline + ActiveCpp run on fresh systems): fan out across the sweep
    // and print the rows in factor order.
    struct Row {
      double data_gb = 0.0;
      double baseline_total = 0.0;
      double speedup = 0.0;
      std::size_t csd_lines = 0;
      double sampling = 0.0;
    };
    const auto rows = exec::run_batch(
        factors,
        [&](const double& factor) {
          apps::AppConfig config;
          config.size_factor = factor;
          const auto program = apps::make_app(name, config);

          system::SystemModel base_system;
          const auto baseline = baseline::run_host_only(base_system, program);

          system::SystemModel system;
          runtime::ActiveRuntime active(system);
          const auto result = active.run(program);

          return Row{program.total_storage_bytes().as_double() / 1e9,
                     baseline.total.value(),
                     baseline.total.value() / result.end_to_end().value(),
                     result.plan.csd_line_count(),
                     result.sampling_overhead.value()};
        },
        jobs);
    for (std::size_t i = 0; i < factors.size(); ++i) {
      std::printf("%9.3fx %9.2f GB %11.3fs %9.2fx %8zu %11.4fs\n", factors[i],
                  rows[i].data_gb, rows[i].baseline_total, rows[i].speedup,
                  rows[i].csd_lines, rows[i].sampling);
    }
  }
  std::printf(
      "\nexpected: speedups grow toward an asymptote with dataset size; at "
      "tiny sizes\nthe fixed sampling/codegen costs eat the gain but the "
      "planner never loses much\n(it simply keeps lines on the host when "
      "Equation 1 says so).\n");
  return 0;
}
