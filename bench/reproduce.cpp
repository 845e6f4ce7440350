// The paper's §V evaluation, experiments E1–E7 of DESIGN.md §5, in one
// driver:
//
//   reproduce [--experiment E1..E7|all|En,Em,...] [--jobs N]
//             [--json FILE] [--check FILE]
//
// Each experiment is one function: it fans its simulations out through
// exec::run_batch (submission order, so output is byte-identical at every
// --jobs), prints the table EXPERIMENTS.md quotes and returns its rows.
// Row records each printed value as one JSON line tagged with the
// experiment id, rounded as printed.  --json FILE writes the rows (the
// update step for the committed BENCH_repro.json); --check FILE compares
// them with FILE's rows of the same experiments, prints those that differ
// to stderr and exits 1 on any difference.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "baseline/baselines.hpp"
#include "bench/bench_util.hpp"
#include "common/error.hpp"
#include "exec/cli.hpp"
#include "exec/pool.hpp"
#include "plan/device_factor.hpp"
#include "plan/equation1.hpp"
#include "plan/estimates.hpp"
#include "plan/oracle.hpp"
#include "profile/sampler.hpp"
#include "runtime/active_runtime.hpp"

namespace {

using namespace isp;
using Rows = std::vector<std::string>;

/// One canonical row, a JSON object on one line, built key by key.  cell()
/// and text() print a value with the table's format and record it; a
/// number keeps the places its format prints, so an unchanged table is an
/// unchanged row and --check is a line comparison.
class Row {
 public:
  explicit Row(const char* experiment) { str("exp", experiment); }

  Row& cell(const char* key, const char* fmt, double value) {
    std::printf(fmt, value);
    // The places fmt prints: the digits after the '.' of its conversion.
    const char* spec = std::strchr(fmt, '%');
    if (spec != nullptr) spec += 1 + std::strspn(spec + 1, "+- #0123456789");
    ISP_CHECK(spec != nullptr && *spec == '.', "no precision in " << fmt);
    return num(key, value, std::atoi(spec + 1));
  }

  Row& text(const char* key, const char* fmt, const std::string& value) {
    std::printf(fmt, value.c_str());
    return str(key, value);
  }

  Row& num(const char* key, double value, int places) {
    ISP_CHECK(std::isfinite(value), "non-finite row value for " << key);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", places, value);
    return add(key, buf);
  }

  Row& str(const char* key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return add(key, quoted + '"');
  }

  Row& flag(const char* key, bool v) { return add(key, v ? "true" : "false"); }

  [[nodiscard]] std::string done() const { return text_ + "}"; }

 private:
  Row& add(const char* key, const std::string& value) {
    text_ += (text_.empty() ? "{\"" : ",\"") + std::string(key) + "\":" + value;
    return *this;
  }

  std::string text_;
};

/// Run `fn(program, system)` for every app of `list` on its own program and
/// a fresh SystemModel, fanned out over `jobs` workers; the results come
/// back in `list` order.
template <typename Fn>
auto per_app(const std::vector<apps::AppInfo>& list, unsigned jobs, Fn fn) {
  return exec::run_batch(
      list,
      [&](const apps::AppInfo& app) {
        const auto program = apps::make_app(app.name);
        system::SystemModel system;
        return fn(program, system);
      },
      jobs);
}

// E1 — Figure 2 + §II-B(3): the TPC-H C-based ISP plans that are optimal at
// 100% CSE availability (Summarizer-style static ISP), frozen, as the CSE
// share left to them shrinks.
Rows fig2_static_isp(unsigned jobs) {
  const std::vector<std::string> workloads{"tpch-q1", "tpch-q6", "tpch-q14"};
  const std::vector<double> availabilities = {1.0, 0.9, 0.8, 0.7, 0.6,
                                              0.5, 0.4, 0.3, 0.2, 0.1};
  // One task per workload: freeze its optimal plan at 100% availability,
  // then run the frozen plan at every availability on a fresh system.
  const auto speedups = exec::run_batch(
      workloads,
      [&](const std::string& name) {
        const auto program = apps::make_app(name);
        system::SystemModel system;
        const double baseline_s =
            baseline::run_host_only(system, program).total.value();
        const auto oracle = baseline::programmer_directed_plan(system, program);
        std::vector<double> row;
        for (const double avail : availabilities) {
          system::SystemModel run_system;
          const auto report = baseline::run_static_isp(
              run_system, program, oracle.best,
              sim::AvailabilitySchedule::constant(avail));
          row.push_back(baseline_s / report.total.value());
        }
        return row;
      },
      jobs);
  bench::print_header(
      "Figure 2: static C-based ISP plan (optimised at 100% CSE) vs CSE "
      "availability");
  std::printf("%-10s", "avail");
  for (const auto& w : workloads) std::printf(" %10s", w.c_str());
  std::printf(" %10s\n", "mean");
  bench::print_rule();
  Rows rows;
  double at_100 = 0.0;
  double crossover = 1.0;    // last availability with a mean still >= 1.0x
  double first_below = 0.0;  // first availability below 1.0x (0: none)
  for (std::size_t a = 0; a < availabilities.size(); ++a) {
    Row row("E1");
    row.cell("avail_pct", "%9.0f%%", availabilities[a] * 100.0);
    std::vector<double> at_avail;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      at_avail.push_back(speedups[w][a]);
      row.cell(workloads[w].c_str(), " %9.2fx", speedups[w][a]);
    }
    const double m = bench::mean(at_avail);
    rows.push_back(row.cell("mean", " %9.2fx\n", m).done());
    if (availabilities[a] == 1.0) at_100 = m;
    if (m >= 1.0) crossover = availabilities[a];
    if (m < 1.0 && first_below == 0.0) first_below = availabilities[a];
  }
  bench::print_rule();
  std::printf(
      "paper:    1.25x at 100%% availability; loss below ~60%% availability\n");
  rows.push_back(
      Row("E1")
          .cell("at_100_mean", "measured: %.2fx at 100%% availability; ",
                at_100)
          .cell("last_at_or_above_1x_pct",
                "last availability still >= 1.0x: %.0f%%\n", crossover * 100.0)
          .num("first_below_1x_pct", first_below * 100.0, 0)
          .done());
  return rows;
}

// E2 — Table I: the applications, their input data sizes and their
// single-entry-single-exit code regions, from the registered programs.
// SparseMV is in §V's analysis and Figure 5 but not in Table I.
Rows table1_workloads(unsigned jobs) {
  const auto& all = apps::all_apps();
  struct Table1App { double measured_gb = 0; std::vector<std::string> lines; };
  const auto programs = per_app(all, jobs, [](const ir::Program& program,
                                                system::SystemModel&) {
    program.validate();
    Table1App t{program.total_storage_bytes().as_double() / 1e9, {}};
    for (const auto& line : program.lines()) t.lines.push_back(line.name);
    return t;
  });
  bench::print_header(
      "Table I: applications, input data sizes, SESE code regions");
  std::printf("%-14s %10s %10s %8s  %s\n", "app", "paper", "measured",
              "regions", "description");
  bench::print_rule();
  Rows rows;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double regions = static_cast<double>(programs[i].lines.size());
    rows.push_back(
        Row("E2")
            .text("app", "%-14s", all[i].name)
            .cell("paper_gb", " %8.1fGB", all[i].table1_bytes.as_double() / 1e9)
            .cell("measured_gb", " %8.2fGB", programs[i].measured_gb)
            .cell("regions", " %8.0f", regions)
            .flag("in_table1", all[i].in_table1)
            .done());
    std::printf("  %s%s\n", all[i].description.c_str(),
                all[i].in_table1 ? "" : "  [not in Table I]");
  }
  bench::print_rule();
  std::printf("\nper-application code regions (the runtime's placement unit):\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::printf("\n%s:\n", all[i].name.c_str());
    for (std::size_t l = 0; l < programs[i].lines.size(); ++l) {
      std::printf("  [%zu] %s\n", l, programs[i].lines[l].c_str());
    }
  }
  return rows;
}

// E3 — Figure 4 + §V "ActivePy's overall performance": with the CSD fully
// dedicated, the no-ISP C baseline, the optimal programmer-directed C ISP
// configuration (every combination of code regions measured), and
// ActiveCpp with no hints, its sampling and code generation included.
Rows fig4_overall(unsigned jobs) {
  struct Fig4App {  // regions: 'C' per CSD line, 'h' per host line
    double baseline_s = 0, directed_x = 0, active_x = 0, overhead_s = 0;
    bool same_plan = false;
    std::string regions;
  };
  const auto table1 = apps::table1_apps();
  const auto runs = per_app(table1, jobs, [](const ir::Program& program,
                                             system::SystemModel& system) {
    const auto baseline = baseline::run_host_only(system, program);
    const auto oracle = baseline::programmer_directed_plan(system, program);
    const auto directed = baseline::run_static_isp(
        system, program, oracle.best, sim::AvailabilitySchedule::constant(1.0));
    const auto result = runtime::ActiveRuntime(system).run(program);
    const double base = baseline.total.value();
    const auto overhead =
        result.sampling_overhead + result.report.compile_overhead;
    Fig4App run{base, base / directed.total.value(),
                base / result.end_to_end().value(), overhead.value(),
                result.plan.placement == oracle.best.placement, {}};
    for (const auto p : result.plan.placement) {
      run.regions += (p == ir::Placement::Csd) ? 'C' : 'h';
    }
    return run;
  });
  bench::print_header(
      "Figure 4: ActiveCpp vs optimal programmer-directed C ISP "
      "(100% CSD availability)");
  std::printf("%-14s %10s %12s %12s %10s %10s  %s\n", "app", "baseline",
              "directed-x", "activecpp-x", "overhead", "plan", "regions");
  bench::print_rule();
  Rows rows;
  std::vector<double> directed, active;
  bool all_identical = true;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    directed.push_back(r.directed_x);
    active.push_back(r.active_x);
    all_identical = all_identical && r.same_plan;
    rows.push_back(
        Row("E3")
            .text("app", "%-14s", table1[i].name)
            .cell("baseline_s", " %9.2fs", r.baseline_s)
            .cell("directed_x", " %11.2fx", r.directed_x)
            .cell("activecpp_x", " %11.2fx", r.active_x)
            .cell("overhead_s", " %9.3fs", r.overhead_s)
            .text("plan", " %10s", r.same_plan ? "identical" : "DIFFERS")
            .text("regions", "  %s\n", r.regions)
            .done());
  }
  bench::print_rule();
  Row summary("E3");
  std::printf("%-14s %10s", "geomean", "");
  summary.cell("geomean_directed_x", " %11.2fx", bench::geomean(directed))
      .cell("geomean_activecpp_x", " %11.2fx\n", bench::geomean(active));
  std::printf("%-14s %10s", "mean", "");
  summary.cell("mean_directed_x", " %11.2fx", bench::mean(directed))
      .cell("mean_activecpp_x", " %11.2fx\n", bench::mean(active));
  rows.push_back(summary.flag("identical_plans", all_identical).done());
  std::printf(
      "\npaper:   programmer-directed 1.33x avg, ActivePy 1.34x avg, "
      "identical region sets,\n         baselines 11 s (TPC-H-6) .. 73 s "
      "(KMeans), ~1%% framework overhead\n");
  std::printf("measured: region sets %s\n",
              all_identical ? "identical for every application"
                            : "differ for at least one application");
  return rows;
}

// E4 — Figure 5 + §V "ActivePy with dynamic task migration": co-running
// work takes the CSE once each application's ISP tasks reach 50% of their
// progress, leaving 50% or 10% of it; full ActiveCpp runs against a build
// that cannot migrate (conventional compiled-language ISP).
Rows fig5_migration(unsigned jobs) {
  // Speedups vs the no-CSD baseline with and without migration.
  struct Fig5App { double with_x = 0, without_x = 0; bool migrated = false; };
  const std::vector<double> availabilities = {0.5, 0.1};
  const auto& all = apps::all_apps();
  // One task per app: its baseline, then both builds at each availability,
  // every run on its own system.
  const auto runs = per_app(all, jobs, [&](const ir::Program& program,
                                           system::SystemModel& system) {
    const double baseline_s =
        baseline::run_host_only(system, program).total.value();
    std::vector<Fig5App> at;  // [availability]
    for (const double availability : availabilities) {
      runtime::RunConfig rc;
      rc.engine.contention.enabled = true;
      rc.engine.contention.at_csd_progress = 0.5;
      rc.engine.contention.availability = availability;
      runtime::RunConfig no_mig = rc;
      no_mig.engine.migration = false;
      system::SystemModel with_system;
      const auto with = runtime::ActiveRuntime(with_system).run(program, rc);
      system::SystemModel without_system;
      const auto without =
          runtime::ActiveRuntime(without_system).run(program, no_mig);
      at.push_back(Fig5App{baseline_s / with.end_to_end().value(),
                           baseline_s / without.end_to_end().value(),
                           with.report.migrations > 0});
    }
    return at;
  });
  bench::print_header(
      "Figure 5: dynamic task migration under CSE contention (50% / 10% "
      "availability)");
  Rows rows;
  for (std::size_t a = 0; a < availabilities.size(); ++a) {
    const double pct = availabilities[a] * 100.0;
    std::printf("\nCSE availability %.0f%% after 50%% ISP progress:\n", pct);
    std::printf("%-14s %12s %12s %10s %10s\n", "app", "w/ mig (x)",
                "w/o mig (x)", "ratio", "migrated");
    bench::print_rule();
    std::vector<double> with_x, without_x, ratio;
    double max_loss = 0.0;
    int migrated = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto& r = runs[i][a];
      rows.push_back(Row("E4")
                         .num("avail_pct", pct, 0)
                         .text("app", "%-14s", all[i].name)
                         .cell("with_x", " %11.2fx", r.with_x)
                         .cell("without_x", " %11.2fx", r.without_x)
                         .cell("ratio", " %9.2fx", r.with_x / r.without_x)
                         .text("migrated", " %10s\n", r.migrated ? "yes" : "no")
                         .done());
      with_x.push_back(r.with_x);
      without_x.push_back(r.without_x);
      ratio.push_back(r.with_x / r.without_x);
      max_loss = std::max(max_loss, 1.0 - r.without_x);
      migrated += r.migrated ? 1 : 0;
    }
    bench::print_rule();
    const double mean_with = bench::mean(with_x);
    Row summary("E4");
    summary.num("avail_pct", pct, 0)
        .cell("mean_with_x", "mean: w/ migration %.2fx of baseline ",
              mean_with);
    std::printf("(%.0f%% %s), ", 100.0 * std::abs(1.0 - mean_with),
                mean_with < 1.0 ? "slowdown" : "speedup");
    rows.push_back(
        summary
            .cell("mean_without_x", "w/o migration %.2fx,\n",
                  bench::mean(without_x))
            .cell("migration_advantage_x", "      migration advantage %.2fx, ",
                  bench::mean(ratio))
            .cell("max_loss_without_pct", "max loss w/o migration %.0f%%\n",
                  100.0 * max_loss)
            .num("apps_migrated", migrated, 0)
            .done());
  }
  std::printf(
      "\npaper (10%%): migration advantage 2.82x; w/ migration ~8%% below "
      "baseline;\n             w/o migration avg 67%% loss, max 88%%\n");
  std::printf(
      "paper (50%%): migrates for blackscholes, kmeans, sparsemv, mixedgemm, "
      "tpch-q1, tpch-q14;\n             w/ >= w/o everywhere except "
      "blackscholes\n");
  return rows;
}

// E5 — §V "ActivePy's capability in identifying and composing CSD code":
// for every line of every workload, the output volume the sampling phase
// extrapolated against the volume the line produced on the raw input.
Rows estimation_accuracy(unsigned jobs) {
  // kind: "csr", "csr-derived" or "regular"; pred and actual in bytes.
  struct VolumeLine { std::string line, kind; double pred = 0, actual = 0; };
  const auto& all = apps::all_apps();
  const auto volumes = per_app(all, jobs, [](const ir::Program& program,
                                             system::SystemModel& system) {
    const auto samples = profile::Sampler(system).run(program);
    const auto factor = plan::device_factor_from_counters(system);
    const auto estimates =
        plan::build_estimates(program, samples, factor, system);
    // Ground truth from one functional host run.
    const auto truth = plan::measure_true_estimates(system, program);
    // The paper discounts "the outliers (e.g., CSR format)": the CSR
    // line itself plus everything whose predicted input volume flows
    // through it (taint propagation over the dataflow).
    std::set<std::string> taint;  // objects derived from a CSR line
    std::vector<VolumeLine> lines;
    for (std::size_t i = 0; i < program.line_count(); ++i) {
      const auto& line = program.lines()[i];
      const bool is_csr = line.name.find("to_csr") != std::string::npos;
      bool tainted = is_csr;
      for (const auto& in : line.inputs) tainted |= taint.count(in) > 0;
      if (tainted) taint.insert(line.outputs.begin(), line.outputs.end());
      const double actual = truth[i].d_out.as_double();
      if (actual < 1e6) continue;  // constant-size results carry no signal
      lines.push_back(VolumeLine{
          line.name, is_csr ? "csr" : tainted ? "csr-derived" : "regular",
          estimates[i].d_out.as_double(), actual});
    }
    return lines;
  });
  bench::print_header(
      "Estimation accuracy: predicted vs actual data volume per line");
  std::printf("%-14s %-42s %10s %10s %8s\n", "app", "line", "pred",
              "actual", "ratio");
  bench::print_rule();
  Rows rows;
  std::vector<double> errors_regular;  // |ratio - 1| + 1 for non-CSR lines
  double max_csr = 0.0;
  bool csr_always_over = true;
  for (std::size_t a = 0; a < all.size(); ++a) {
    for (const auto& l : volumes[a]) {
      const double ratio = l.pred / l.actual;
      rows.push_back(Row("E5")
                         .text("app", "%-14s", all[a].name)
                         .text("line", " %-42s", l.line.substr(0, 42))
                         .cell("pred_gb", " %8.3fGB", l.pred / 1e9)
                         .cell("actual_gb", " %8.3fGB", l.actual / 1e9)
                         .cell("ratio", " %7.2fx", ratio)
                         .str("kind", l.kind)
                         .done());
      std::printf("%s\n", l.kind == "csr"           ? "  <- CSR"
                          : l.kind == "csr-derived" ? "  (CSR-derived)"
                                                    : "");
      if (l.kind == "csr") {
        max_csr = std::max(max_csr, ratio);
        csr_always_over = csr_always_over && ratio > 1.0;
      } else if (l.kind == "regular") {
        errors_regular.push_back(std::abs(ratio - 1.0) + 1.0);
      }
    }
  }
  bench::print_rule();
  Row summary("E5");
  summary
      .cell("geomean_error_pct",
            "geomean volume error (excluding CSR lines): %.0f%%   "
            "[paper: 9%%]\n",
            (bench::geomean(errors_regular) - 1.0) * 100.0)
      .cell("csr_max_x", "CSR construction over-estimation: up to %.2fx, ",
            max_csr);
  std::printf("always over: %s   [paper: up to 2.41x, always over]\n",
              csr_always_over ? "yes" : "NO");
  rows.push_back(summary.flag("csr_always_over", csr_always_over).done());
  return rows;
}

// E6 — §V "ActivePy's optimizations in its language runtime": host-only, no
// ISP anywhere; each language mode's slowdown vs the C baseline.
Rows runtime_opt(unsigned jobs) {
  // The C baseline's seconds and each mode's slowdown, a fraction of it.
  struct Slowdowns { double c_s = 0, interp = 0, compiled = 0, nocopy = 0; };
  const auto table1 = apps::table1_apps();
  const auto runs = per_app(table1, jobs, [](const ir::Program& program,
                                             system::SystemModel& system) {
    using codegen::ExecMode;
    const auto seconds = [&](ExecMode mode) {
      return baseline::run_host_only(system, program, mode).total.value();
    };
    const double c_s = seconds(ExecMode::NativeC);
    // A braced initialiser runs its elements in order.
    return Slowdowns{c_s, seconds(ExecMode::Interpreted) / c_s - 1.0,
                     seconds(ExecMode::Compiled) / c_s - 1.0,
                     seconds(ExecMode::CompiledNoCopy) / c_s - 1.0};
  });
  bench::print_header(
      "Language-runtime optimisations (host-only, no ISP): slowdown vs the C "
      "baseline");
  std::printf("%-14s %10s %12s %12s %14s\n", "app", "C (s)", "interp",
              "compiled", "comp+nocopy");
  bench::print_rule();
  Rows rows;
  std::vector<double> interp, compiled, nocopy;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    interp.push_back(r.interp);
    compiled.push_back(r.compiled);
    nocopy.push_back(r.nocopy);
    rows.push_back(Row("E6")
                       .text("app", "%-14s", table1[i].name)
                       .cell("c_s", " %9.2fs", r.c_s)
                       .cell("interp_pct", " %+11.0f%%", 100.0 * r.interp)
                       .cell("compiled_pct", " %+11.0f%%", 100.0 * r.compiled)
                       .cell("nocopy_pct", " %+13.1f%%\n", 100.0 * r.nocopy)
                       .done());
  }
  bench::print_rule();
  std::printf("%-14s %10s", "mean", "");
  rows.push_back(
      Row("E6")
          .cell("mean_interp_pct", " %+11.0f%%", 100.0 * bench::mean(interp))
          .cell("mean_compiled_pct", " %+11.0f%%",
                100.0 * bench::mean(compiled))
          .cell("mean_nocopy_pct", " %+13.1f%%\n", 100.0 * bench::mean(nocopy))
          .done());
  std::printf("paper:  +41%% interpreted, +20%% compiled, ~+1%% with copy "
              "elimination\n");
  return rows;
}

// E7 — Equation 1: the analytic net-profit surface over the data-reduction
// factor DS_processed/DS_raw and the compute ratio CT_device/CT_host on the
// paper's constants (5 GB/s link, 9 GB/s internal NAND), then the check
// that each Table-I application's chosen region set has positive measured
// profit versus host-only.
Rows eq1_sweep(unsigned jobs) {
  const auto table1 = apps::table1_apps();
  struct Latencies { double host_only = 0, best = 0; };
  const auto runs = per_app(table1, jobs, [](const ir::Program& program,
                                             system::SystemModel& system) {
    const auto oracle = baseline::programmer_directed_plan(system, program);
    return Latencies{oracle.host_only_latency.value(),
                     oracle.best_latency.value()};
  });
  bench::print_header(
      "Equation 1: net profit S (seconds) for a 6.9 GB task, CT_host = 5 s");
  const Bytes ds_raw = gigabytes(6.9);
  const Seconds ct_host{5.0};
  const std::vector<double> reductions = {0.01, 0.1, 0.25, 0.5, 0.75, 1.0};
  std::printf("%-18s", "CTdev/CThost \\ red");
  for (const auto r : reductions) std::printf(" %8.2f", r);
  std::printf("\n");
  bench::print_rule();
  Rows rows;
  for (const double c : {0.6, 0.8, 1.0, 1.2, 1.5, 2.0}) {
    std::printf("%-18.2f", c);
    for (const auto r : reductions) {
      // CT_device includes the internal flash read of the raw input.
      const plan::Eq1Terms terms{
          .ds_raw = ds_raw,
          .ct_host = ct_host,
          .ct_device = ct_host * c + ds_raw / gb_per_s(9.0),
          .ds_processed = scale(ds_raw, r),
          .bw_d2h = gb_per_s(5.0)};
      rows.push_back(Row("E7")
                         .num("ct_ratio", c, 2)
                         .num("reduction", r, 2)
                         .cell("s", " %+8.2f", plan::net_profit(terms).value())
                         .done());
    }
    std::printf("\n");
  }

  bench::print_header(
      "Consistency: measured profit of each application's chosen region set");
  std::printf("%-14s %12s %12s %10s\n", "app", "host-only", "with ISP",
              "S (s)");
  bench::print_rule();
  bool all_positive = true;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const double s = runs[i].host_only - runs[i].best;
    all_positive = all_positive && (s >= 0.0);
    rows.push_back(Row("E7")
                       .text("app", "%-14s", table1[i].name)
                       .cell("host_only_s", " %11.2fs", runs[i].host_only)
                       .cell("with_isp_s", " %11.2fs", runs[i].best)
                       .cell("s", " %+9.2fs\n", s)
                       .done());
  }
  bench::print_rule();
  std::printf("every chosen region set profitable: %s\n",
              all_positive ? "yes" : "NO");
  rows.push_back(Row("E7").flag("all_profitable", all_positive).done());
  return rows;
}

// The driver: each experiment's id and function, in run order.
struct Experiment {
  const char* id;
  Rows (*run)(unsigned jobs);
};

const Experiment kExperiments[] = {
    {"E1", fig2_static_isp},     {"E2", table1_workloads},
    {"E3", fig4_overall},        {"E4", fig5_migration},
    {"E5", estimation_accuracy}, {"E6", runtime_opt},
    {"E7", eq1_sweep}};

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "error: %s\n", why.c_str());
  std::exit(2);
}

/// The ids `--experiment` names: "all" or a comma-separated list of ids.
/// Anything else exits 2.
std::set<std::string> chosen_experiments(const std::string& list) {
  std::set<std::string> chosen;
  for (std::size_t start = 0; start <= list.size();) {
    const std::size_t end = std::min(list.find(',', start), list.size());
    const std::string id = list.substr(start, end - start);
    for (const auto& e : kExperiments) {
      if (id == "all" || id == e.id) chosen.insert(e.id);
    }
    if (id != "all" && chosen.count(id) == 0) {
      usage_error("--experiment: '" + id + "' is not E1..E7 or all");
    }
    start = end + 1;
  }
  return chosen;
}

/// The rows of `path` whose "exp" tag is a chosen id; exits 2 if the file
/// cannot be read.
Rows golden_rows(const char* path, const std::set<std::string>& chosen) {
  std::ifstream in(path);
  if (!in) usage_error(std::string("--check: cannot read ") + path);
  const std::string prefix = "{\"exp\":\"";
  Rows golden;
  for (std::string line; std::getline(in, line);) {
    const std::size_t tag_end = line.find('"', prefix.size());
    if (line.rfind(prefix, 0) == 0 &&
        chosen.count(line.substr(prefix.size(), tag_end - prefix.size()))) {
      golden.push_back(line);
    }
  }
  return golden;
}

/// Print every position where `rows` and `golden` differ; true when none.
bool same_rows(const Rows& rows, const Rows& golden, const char* path) {
  std::size_t differing = 0;
  for (std::size_t i = 0; i < std::max(rows.size(), golden.size()); ++i) {
    const std::string want = i < golden.size() ? golden[i] : "(none)";
    const std::string got = i < rows.size() ? rows[i] : "(none)";
    if (want == got) continue;
    ++differing;
    std::fprintf(stderr, "row %zu: %s has\n  %s\nmeasured\n  %s\n", i + 1, path,
                 want.c_str(), got.c_str());
  }
  std::fprintf(stderr, "reproduce: %zu of %zu rows differ from %s\n",
               differing, rows.size(), path);
  return differing == 0;
}

}  // namespace

int main(int argc, char** argv) {
  exec::reject_unknown_flags(argc, argv,
                             {"--experiment", "--jobs", "--json", "--check"});
  const auto chosen = chosen_experiments(
      exec::string_flag(argc, argv, "--experiment", "all"));
  const unsigned jobs = exec::jobs_from_args(argc, argv);
  const char* json_path = exec::string_flag(argc, argv, "--json", nullptr);
  const char* check_path = exec::string_flag(argc, argv, "--check", nullptr);
  // Read and open the files before the runs, so a bad path fails at once
  // (and --check reads FILE before --json FILE rewrites it).
  const Rows golden = check_path ? golden_rows(check_path, chosen) : Rows{};
  std::ofstream json_out;
  if (json_path != nullptr) {
    json_out.open(json_path);
    if (!json_out) usage_error(std::string("--json: cannot open ") + json_path);
  }

  Rows rows;
  for (const auto& e : kExperiments) {
    if (chosen.count(e.id) == 0) continue;
    const Rows experiment = e.run(jobs);
    rows.insert(rows.end(), experiment.begin(), experiment.end());
  }
  std::fflush(stdout);

  if (json_path != nullptr) {
    for (const auto& row : rows) json_out << row << '\n';
    if (!json_out.flush()) {
      usage_error(std::string("--json: cannot write ") + json_path);
    }
  }
  if (check_path != nullptr && !same_rows(rows, golden, check_path)) return 1;
  return 0;
}
