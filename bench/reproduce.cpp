// The paper's §V evaluation, its ablations and extensions and the §VI
// projection, experiments E1–E7 and E9–E12 of DESIGN.md §5, in one driver:
//
//   reproduce [--experiment E1..E7|E9..E12|all|En,Em,...] [--jobs N]
//             [--json FILE] [--check FILE]
//
// Each experiment is one function: it fans its simulations out through
// exec::run_batch (submission order, so output is byte-identical at every
// --jobs), prints the table EXPERIMENTS.md quotes and returns its rows.
// Row records each printed value as one JSON line tagged with the
// experiment id, rounded as printed.  --json FILE writes the rows (the
// update step for the committed BENCH_repro.json); --check FILE compares
// them with FILE's rows of the same experiments, prints those that differ
// to stderr and exits 1 on any difference.  The default-config comparators
// are computed once per run, before the first experiment (Comparators).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "baseline/baselines.hpp"
#include "baseline/work_sharing.hpp"
#include "bench/bench_util.hpp"
#include "bench/three_way.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/cli.hpp"
#include "exec/pool.hpp"
#include "flash/ftl.hpp"
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

// The queries E1 freezes and E11 splits, and the apps E11 scales.
const std::vector<std::string> kTpch = {"tpch-q1", "tpch-q6", "tpch-q14"};
const std::vector<std::string> kScalingApps = {"tpch-q6", "kmeans",
                                               "matrixmul"};

/// The comparators that run on the default SystemConfig and AppConfig, one
/// bit each: the C host-only baseline (baseline::run_host_only, NativeC),
/// the exhaustive oracle (baseline::programmer_directed_plan) and the true
/// per-line estimates (plan::measure_true_estimates).
enum Kind : unsigned { kBaseline = 1, kOracle = 2, kTruth = 4 };

/// One app's comparators: the kinds its `kinds` bits name.
struct Comparator {
  unsigned kinds = 0;
  double baseline_s = 0;
  plan::OracleResult oracle;
  std::vector<ir::LineEstimate> truth;
};

/// Each app's default-config comparators, computed once per driver run.
/// Only their small results are kept, not the programs.
class Comparators {
 public:
  /// Compute, for every app of `wanted`, the kinds its bits name, on one
  /// program and one SystemModel per app (a used model gives the same bits:
  /// AllApps/Comparators.IdenticalOnUsedAndFreshModel), fanned out over
  /// `jobs` workers.
  Comparators(const std::map<std::string, unsigned>& wanted, unsigned jobs) {
    const std::vector<std::pair<std::string, unsigned>> list(wanted.begin(),
                                                             wanted.end());
    const auto results = exec::run_batch(
        list,
        [](const std::pair<std::string, unsigned>& want) {
          const auto program = apps::make_app(want.first);
          system::SystemModel system;
          Comparator c;
          c.kinds = want.second;
          if ((c.kinds & kBaseline) != 0) {
            c.baseline_s =
                baseline::run_host_only(system, program).total.value();
          }
          if ((c.kinds & kOracle) != 0) {
            c.oracle = baseline::programmer_directed_plan(system, program);
          }
          if ((c.kinds & kTruth) != 0) {
            c.truth = plan::measure_true_estimates(system, program);
          }
          return c;
        },
        jobs);
    for (std::size_t i = 0; i < list.size(); ++i) {
      by_app_.emplace(list[i].first, results[i]);
    }
  }

  /// `app`'s comparators; throws unless `kind` was computed for it, that
  /// is, unless a chosen experiment's needs name it.
  [[nodiscard]] const Comparator& of(const std::string& app, Kind kind) const {
    const auto it = by_app_.find(app);
    ISP_CHECK(it != by_app_.end() && (it->second.kinds & kind) != 0,
              "comparator " << kind << " of " << app << " is not declared");
    return it->second;
  }

 private:
  std::map<std::string, Comparator> by_app_;
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
Rows fig2_static_isp(const Comparators& shared, unsigned jobs) {
  const std::vector<double> availabilities = {1.0, 0.9, 0.8, 0.7, 0.6,
                                              0.5, 0.4, 0.3, 0.2, 0.1};
  // One task per workload: run its plan frozen at the 100% optimum at every
  // availability on a fresh system.
  const auto speedups = exec::run_batch(
      kTpch,
      [&](const std::string& name) {
        const auto program = apps::make_app(name);
        const double baseline_s = shared.of(name, kBaseline).baseline_s;
        const auto& best = shared.of(name, kOracle).oracle.best;
        std::vector<double> row;
        for (const double avail : availabilities) {
          system::SystemModel run_system;
          const auto report = baseline::run_static_isp(
              run_system, program, best,
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
  for (const auto& w : kTpch) std::printf(" %10s", w.c_str());
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
    for (std::size_t w = 0; w < kTpch.size(); ++w) {
      at_avail.push_back(speedups[w][a]);
      row.cell(kTpch[w].c_str(), " %9.2fx", speedups[w][a]);
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
Rows table1_workloads(const Comparators&, unsigned jobs) {
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
Rows fig4_overall(const Comparators& shared, unsigned jobs) {
  struct Fig4App {  // regions: 'C' per CSD line, 'h' per host line
    double baseline_s = 0, directed_x = 0, active_x = 0, overhead_s = 0;
    bool same_plan = false;
    std::string regions;
  };
  const auto table1 = apps::table1_apps();
  const auto runs = per_app(table1, jobs, [&](const ir::Program& program,
                                             system::SystemModel& system) {
    const auto& oracle = shared.of(program.name(), kOracle).oracle;
    const auto directed = baseline::run_static_isp(
        system, program, oracle.best, sim::AvailabilitySchedule::constant(1.0));
    const auto result = runtime::ActiveRuntime(system).run(program);
    const double base = shared.of(program.name(), kBaseline).baseline_s;
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
Rows fig5_migration(const Comparators& shared, unsigned jobs) {
  // Speedups vs the no-CSD baseline with and without migration.
  struct Fig5App { double with_x = 0, without_x = 0; bool migrated = false; };
  const std::vector<double> availabilities = {0.5, 0.1};
  const auto& all = apps::all_apps();
  // One task per app: both builds at each availability, every run on its
  // own system.
  const auto runs = per_app(all, jobs, [&](const ir::Program& program,
                                           system::SystemModel&) {
    const double baseline_s = shared.of(program.name(), kBaseline).baseline_s;
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
Rows estimation_accuracy(const Comparators& shared, unsigned jobs) {
  // kind: "csr", "csr-derived" or "regular"; pred and actual in bytes.
  struct VolumeLine { std::string line, kind; double pred = 0, actual = 0; };
  const auto& all = apps::all_apps();
  const auto volumes = per_app(all, jobs, [&](const ir::Program& program,
                                             system::SystemModel& system) {
    const auto samples = profile::Sampler(system).run(program);
    const auto factor = plan::device_factor_from_counters(system);
    const auto estimates =
        plan::build_estimates(program, samples, factor, system);
    // Ground truth from one functional host run.
    const auto& truth = shared.of(program.name(), kTruth).truth;
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
Rows runtime_opt(const Comparators& shared, unsigned jobs) {
  // The C baseline's seconds and each mode's slowdown, a fraction of it.
  struct Slowdowns { double c_s = 0, interp = 0, compiled = 0, nocopy = 0; };
  const auto table1 = apps::table1_apps();
  const auto runs = per_app(table1, jobs, [&](const ir::Program& program,
                                             system::SystemModel& system) {
    using codegen::ExecMode;
    const auto seconds = [&](ExecMode mode) {
      return baseline::run_host_only(system, program, mode).total.value();
    };
    const double c_s = shared.of(program.name(), kBaseline).baseline_s;
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
Rows eq1_sweep(const Comparators& shared, unsigned) {
  const auto table1 = apps::table1_apps();
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
  for (const auto& app : table1) {
    const auto& oracle = shared.of(app.name, kOracle).oracle;
    const double host_only = oracle.host_only_latency.value();
    const double best = oracle.best_latency.value();
    const double s = host_only - best;
    all_positive = all_positive && (s >= 0.0);
    rows.push_back(Row("E7")
                       .text("app", "%-14s", app.name)
                       .cell("host_only_s", " %11.2fs", host_only)
                       .cell("with_isp_s", " %11.2fs", best)
                       .cell("s", " %+9.2fs\n", s)
                       .done());
  }
  bench::print_rule();
  std::printf("every chosen region set profitable: %s\n",
              all_positive ? "yes" : "NO");
  rows.push_back(Row("E7").flag("all_profitable", all_positive).done());
  return rows;
}

// E9 — ActiveCpp's speedup against the three platform constants the
// substitution rule had to pick: ISP wins should grow with the internal/
// external bandwidth gap, and Algorithm 1 offload less as the CSE slows.
Rows ablation_sensitivity(const Comparators&, unsigned jobs) {
  using Config = system::SystemConfig;
  Rows rows;
  for (const char* app : {"tpch-q6", "kmeans"}) {
    const auto program = apps::make_app(app);
    // One batch per sweep, one task per point: the baseline and ActiveCpp
    // on the platform with that constant.
    const auto sweep = [&](const char* title, const char* column,
                           const char* key, const char* fmt,
                           const std::vector<double>& values,
                           void (*apply)(Config&, double)) {
      struct Speedup { double x = 0, csd_lines = 0; };
      const auto runs = exec::run_batch(
          values,
          [&](const double& value) {
            auto config = Config::paper_platform();
            apply(config, value);
            system::SystemModel base_system(config);
            const auto base = baseline::run_host_only(base_system, program);
            system::SystemModel system(config);
            const auto result = runtime::ActiveRuntime(system).run(program);
            return Speedup{base.total.value() / result.end_to_end().value(),
                           static_cast<double>(result.plan.csd_line_count())};
          },
          jobs);
      std::printf("%s%-12s %10s %8s\n", title, column, "speedup", "csd");
      for (std::size_t i = 0; i < values.size(); ++i) {
        rows.push_back(Row("E9")
                           .str("app", app)
                           .cell(key, fmt, values[i])
                           .cell("speedup", " %9.2fx", runs[i].x)
                           .cell("csd_lines", " %7.0f\n", runs[i].csd_lines)
                           .done());
      }
    };
    bench::print_header(std::string("Sensitivity of ") + app +
                        " ActiveCpp speedup to platform constants");
    sweep("link bandwidth sweep (internal NAND fixed at 9 GB/s):\n", "BW_D2H",
          "link_gbps", "%9.1fGB/s", {2.5, 4.0, 5.0, 7.0, 9.0, 12.0},
          [](Config& c, double gbps) { c.link.bandwidth = gb_per_s(gbps); });
    sweep("\ninternal NAND bandwidth sweep (link fixed at 5 GB/s):\n",
          "internal", "nand_gbps", "%9.1fGB/s", {4.5, 6.0, 9.0, 12.0, 16.0},
          [](Config& c, double gbps) {
            // Scale the channel bus to move the effective array bandwidth.
            c.csd.nand_timing.channel_bus = gb_per_s(gbps / 8.0 * 1.0667);
            c.csd.nand_timing.page_read = Seconds{58e-6 * 9.0 / gbps};
          });
    sweep("\nCSE per-core speed sweep (ipc_vs_host; clock fixed):\n",
          "ipc ratio", "ipc_vs_host", "%12.2f", {0.2, 0.35, 0.5, 0.75, 1.0},
          [](Config& c, double ipc) { c.csd.cse.ipc_vs_host = ipc; });
  }
  std::printf(
      "\nexpected shapes: speedup falls as BW_D2H catches up with the "
      "internal\nbandwidth; rises with internal bandwidth and CSE speed; "
      "Algorithm 1 offloads\nfewer lines as the CSE slows.\n");
  return rows;
}

// E10 — the §II-B(3) dynamics beyond Figures 2/5, then the §III-C(a)
// attachment ablation, all on TPC-H Q6.
Rows dynamics_extra(const Comparators& shared, unsigned jobs) {
  const auto program = apps::make_app("tpch-q6");
  // Seconds of the no-ISP baseline and of the ISP run at one point.
  struct Times { double baseline = 0, isp = 0; };
  Rows rows;
  const auto times_row = [&](Row& row, const Times& t, const char* isp_key) {
    rows.push_back(row.cell("baseline_s", " %11.2fs", t.baseline)
                       .cell(isp_key, " %11.2fs", t.isp)
                       .cell("speedup", " %9.2fx\n", t.baseline / t.isp)
                       .done());
  };

  // (1b) Contention on the HOST cuts the other way from the CSE's: a busy
  // host makes offload more attractive.
  const std::vector<double> host_avail = {1.0, 0.75, 0.5, 0.25};
  const auto host_runs = exec::run_batch(
      host_avail,
      [&](const double& avail) {
        const auto host = sim::AvailabilitySchedule::constant(avail);
        runtime::EngineOptions host_busy;
        host_busy.monitoring = false;
        host_busy.migration = false;
        host_busy.host_availability = host;
        system::SystemModel base_system;
        const auto base = runtime::run_program(
            base_system, program, ir::Plan::host_only(program.line_count()),
            codegen::ExecMode::NativeC, host_busy);
        system::SystemModel system;
        runtime::RunConfig rc;
        rc.engine.host_availability = host;
        const auto result = runtime::ActiveRuntime(system).run(program, rc);
        return Times{base.total.value(), result.end_to_end().value()};
      },
      jobs);
  bench::print_header(
      "Dynamic 1b: host-side contention (tpch-q6; CSD fully available)");
  std::printf("%-12s %12s %12s %10s\n", "host avail", "baseline", "activecpp",
              "speedup");
  bench::print_rule();
  for (std::size_t i = 0; i < host_avail.size(); ++i) {
    Row row("E10");
    row.cell("host_avail_pct", "%11.0f%%", host_avail[i] * 100.0);
    times_row(row, host_runs[i], "activecpp_s");
  }
  std::printf(
      "expected: offload pays MORE as the host loses cycles — the CSD-side\n"
      "portion is immune to host contention.\n");

  // (2) Storage-management contention: drive a small FTL through co-tenant
  // overwrite churn, measure the share of array bandwidth GC takes at
  // steady state, and take it from the static ISP plan.
  flash::FtlConfig ftl_config;
  ftl_config.geometry.channels = 2;
  ftl_config.geometry.dies_per_channel = 2;
  ftl_config.geometry.blocks_per_die = 64;
  ftl_config.geometry.pages_per_block = 64;
  ftl_config.overprovision = 0.1;
  flash::Ftl ftl(ftl_config);
  Rng rng(3);
  for (int i = 0; i < 200000; ++i) {
    ftl.write_span(rng.uniform_u64(0, ftl.logical_pages() - 1), 1);
  }
  // GC pressure: reclaim + metadata share of all page programs.
  const flash::StorageCounters churn = ftl.counters();
  const double host = static_cast<double>(churn.host_pages);
  const double internal =
      static_cast<double>(churn.reclaim_pages + churn.meta_pages);
  const double pressure =
      host + internal == 0.0 ? 0.0 : internal / (host + internal);
  const std::vector<double> pressures = {0.0, pressure / 2.0, pressure, 0.6};
  const auto gc_runs = exec::run_batch(
      pressures,
      [&](const double& p) {
        system::SystemModel system;
        system.csd_device().flash_array().set_availability(
            sim::AvailabilitySchedule::constant(1.0 - p));
        const auto base = baseline::run_host_only(system, program);
        const auto oracle = baseline::programmer_directed_plan(system, program);
        const auto isp = baseline::run_static_isp(
            system, program, oracle.best,
            sim::AvailabilitySchedule::constant(1.0));
        return Times{base.total.value(), isp.total.value()};
      },
      jobs);
  bench::print_header(
      "Dynamic 2: storage-management (GC) contention on internal bandwidth");
  rows.push_back(
      Row("E10")
          .cell("write_amplification",
                "steady-state overwrite churn: write amplification %.2f, ",
                ftl.stats().write_amplification())
          .cell("gc_pct", "GC consumes %.0f%% of\ninternal bandwidth\n\n",
                pressure * 100.0)
          .done());
  std::printf("%-14s %12s %12s %10s\n", "gc pressure", "baseline",
              "static ISP", "speedup");
  bench::print_rule();
  for (std::size_t i = 0; i < pressures.size(); ++i) {
    Row row("E10");
    row.cell("gc_pressure_pct", "%13.0f%%", pressures[i] * 100.0);
    times_row(row, gc_runs[i], "static_isp_s");
  }
  std::printf(
      "expected: GC erodes the 9-vs-5 GB/s bandwidth advantage that funds "
      "ISP.\n");

  // (3) The input changes: at raw scale the scan's working set outgrows the
  // device caches and the in-order CSE cores stall to a third of the
  // sampled instruction rate, which the monitor sees.  Task 0 is the no-CSD
  // baseline; 1 and 2 run ActiveCpp with and without migration.
  auto stalled = program;
  auto& scan = stalled.line_mut(0);
  scan.cost.csd_stall_knee_elems =
      scan.elems_for(stalled.total_storage_bytes()) / 2.0;
  scan.cost.csd_stall_multiplier = 3.0;
  struct Run { double seconds = 0; bool migrated = false; };
  const auto input_runs = exec::run_batch(
      std::size_t{3},
      [&](std::size_t i) {
        system::SystemModel system;
        if (i == 0) {
          return Run{baseline::run_host_only(system, stalled).total.value()};
        }
        runtime::RunConfig rc;
        rc.engine.migration = i == 1;
        const auto result = runtime::ActiveRuntime(system).run(stalled, rc);
        return Run{result.end_to_end().value(), result.report.migrations > 0};
      },
      jobs);
  bench::print_header(
      "Dynamic 3: input change — working set outgrows the CSE caches");
  std::printf("%-22s %12s %10s %10s\n", "configuration", "end-to-end",
              "speedup", "migrated");
  bench::print_rule();
  const double stalled_base = input_runs[0].seconds;
  for (std::size_t i = 1; i < input_runs.size(); ++i) {
    rows.push_back(
        Row("E10")
            .text("config", "%-22s",
                  i == 1 ? "activecpp (full)" : "activecpp w/o migration")
            .cell("end_to_end_s", " %11.2fs", input_runs[i].seconds)
            .cell("speedup", " %9.2fx", stalled_base / input_runs[i].seconds)
            .text("migrated", " %10s\n", input_runs[i].migrated ? "yes" : "no")
            .done());
  }
  rows.push_back(Row("E10")
                     .cell("input_baseline_s", "no-CSD baseline: %.2f s\n",
                           stalled_base)
                     .done());
  std::printf(
      "expected: the stale plan stalls on the CSD; only the monitor+migration\n"
      "path recovers to roughly baseline performance.\n");

  // (4) PCIe/BAR, the default platform, against NVMe-oF/RDMA.
  const std::vector<std::string> attachments = {"pcie", "nvme-of"};
  const auto attach_runs = exec::run_batch(
      attachments,
      [&](const std::string& name) {
        const bool fabric = name == "nvme-of";
        const auto config = fabric
                                ? system::SystemConfig::paper_platform_nvmeof()
                                : system::SystemConfig::paper_platform();
        double base = shared.of(program.name(), kBaseline).baseline_s;
        if (fabric) {
          system::SystemModel base_system(config);
          base = baseline::run_host_only(base_system, program).total.value();
        }
        system::SystemModel system(config);
        const auto result = runtime::ActiveRuntime(system).run(program);
        return Times{base, result.end_to_end().value()};
      },
      jobs);
  bench::print_header(
      "Attachment ablation (§III-C(a)): PCIe/BAR vs NVMe-oF/RDMA");
  std::printf("%-12s %12s %12s %10s\n", "attachment", "baseline", "activecpp",
              "speedup");
  bench::print_rule();
  for (std::size_t i = 0; i < attachments.size(); ++i) {
    Row row("E10");
    row.text("attachment", "%-12s", attachments[i]);
    times_row(row, attach_runs[i], "activecpp_s");
  }
  std::printf(
      "expected: near-identical — ISP economics depend on bandwidths, not "
      "the mapping\nmechanism; the fabric adds only microseconds per "
      "command.\n");
  return rows;
}

// E11, work sharing: Summarizer-style host/CSD splitting (the paper's
// reference [13]) against whole-line placement; the table's closing text
// says what it shows (and baseline/work_sharing.hpp why).
Rows work_sharing(const Comparators& shared, unsigned jobs) {
  const std::vector<double> availabilities = {1.0, 0.6, 0.3, 0.1};
  bench::print_header(
      "Work sharing vs whole-line offload (speedup over the no-ISP "
      "baseline)");
  std::printf("%-10s %8s %12s %12s %12s %10s\n", "query", "avail",
              "static ISP", "work-share", "activecpp", "mean f");
  bench::print_rule();
  // Seconds of the three placements, and the splitter's mean CSD share f.
  struct Split { double static_isp = 0, split = 0, activecpp = 0, f = 0; };
  Rows rows;
  for (const auto& name : kTpch) {
    const auto program = apps::make_app(name);
    const auto& best = shared.of(name, kOracle).oracle.best;
    const auto runs = exec::run_batch(
        availabilities,
        [&](const double& avail) {
          const auto cse = sim::AvailabilitySchedule::constant(avail);
          system::SystemModel static_system;
          const auto frozen =
              baseline::run_static_isp(static_system, program, best, cse);
          system::SystemModel share_system;
          const auto split =
              baseline::run_work_sharing(share_system, program, avail);
          system::SystemModel active_system;
          runtime::RunConfig rc;
          rc.engine.cse_availability = cse;
          const auto active =
              runtime::ActiveRuntime(active_system).run(program, rc);
          return Split{frozen.total.value(), split.total.value(),
                       active.end_to_end().value(), split.mean_csd_fraction()};
        },
        jobs);
    const double base = shared.of(name, kBaseline).baseline_s;
    for (std::size_t a = 0; a < availabilities.size(); ++a) {
      const auto& r = runs[a];
      rows.push_back(
          Row("E11")
              .text("query", "%-10s", name)
              .cell("avail_pct", " %7.0f%%", availabilities[a] * 100.0)
              .cell("static_x", " %11.2fx", base / r.static_isp)
              .cell("work_share_x", " %11.2fx", base / r.split)
              .cell("activecpp_x", " %11.2fx", base / r.activecpp)
              .cell("mean_f", " %9.2f\n", r.f)
              .done());
    }
    bench::print_rule();
  }
  std::printf(
      "expected: the splitter's columns exceed whole-line because its model "
      "overlaps\nhost and CSD work (an axis the paper's sequential execution "
      "forgoes). The\nshapes that matter: static ISP collapses with "
      "availability while the splitter\ndegrades gracefully (f -> 0) and "
      "ActiveCpp re-plans; and without concurrency\nfractional splitting "
      "degenerates to exactly Algorithm 1's whole-line choices.\n");
  return rows;
}

// E11, monitor threshold (§III-D): the detector fires when the observed
// instruction rate drops below `below_estimate_fraction` of the estimate.
Rows monitor_ablation(const Comparators& shared, unsigned jobs) {
  const std::vector<double> thresholds = {0.4, 0.6, 0.8, 0.9, 0.98};
  const std::vector<double> availabilities = {1.0, 0.5, 0.1};
  const auto program = apps::make_app("tpch-q6");
  const double base = shared.of("tpch-q6", kBaseline).baseline_s;
  struct Cell { double speedup = 0; bool migrated = false; };
  const auto cells = exec::run_batch(
      thresholds.size() * availabilities.size(),
      [&](std::size_t i) {
        runtime::RunConfig rc;
        rc.engine.monitor.below_estimate_fraction =
            thresholds[i / availabilities.size()];
        const double avail = availabilities[i % availabilities.size()];
        if (avail < 1.0) {
          rc.engine.contention.enabled = true;
          rc.engine.contention.at_csd_progress = 0.5;
          rc.engine.contention.availability = avail;
        }
        system::SystemModel system;
        const auto result = runtime::ActiveRuntime(system).run(program, rc);
        return Cell{base / result.end_to_end().value(),
                    result.report.migrations > 0};
      },
      jobs);
  bench::print_header(
      "Monitor threshold ablation (tpch-q6; speedup vs no-ISP baseline, * = "
      "migrated)");
  std::printf("%-12s %14s %14s %14s\n", "threshold", "100% avail",
              "50% at mid-run", "10% at mid-run");
  bench::print_rule();
  Rows rows;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t t = i / availabilities.size();
    const std::size_t a = i % availabilities.size();
    if (a == 0) std::printf("%12.2f", thresholds[t]);
    rows.push_back(Row("E11")
                       .num("threshold", thresholds[t], 2)
                       .num("avail_pct", availabilities[a] * 100.0, 0)
                       .cell("speedup", "        %5.2fx", cells[i].speedup)
                       .flag("migrated", cells[i].migrated)
                       .done());
    std::printf("%c", cells[i].migrated ? '*' : ' ');
    if (a + 1 == availabilities.size()) std::printf("\n");
  }
  bench::print_rule();
  std::printf(
      "expected: the 100%% column must never migrate (false positives); the "
      "10%%\ncolumn must always migrate; 0.8 (the paper-faithful default) "
      "also catches the\n50%% case.\n");
  return rows;
}

// E11, dataset scaling: Equation 1's profit scales with the raw volume but
// ActiveCpp's fixed costs do not, so small datasets stay on the host.
Rows scaling_study(const Comparators& shared, unsigned jobs) {
  const std::vector<double> factors = {1.0 / 32, 1.0 / 8, 1.0 / 4,
                                       1.0 / 2,  1.0,     2.0};
  struct Scaled {
    double data_gb = 0, baseline_s = 0, speedup = 0, csd_lines = 0,
           sampling_s = 0;
  };
  Rows rows;
  // One batch per app, so at most `jobs` of one app's programs are held;
  // one task per size factor, the baseline shared at the default size.
  for (const auto& name : kScalingApps) {
    const auto runs = exec::run_batch(
        factors,
        [&](const double& factor) {
          apps::AppConfig config;
          config.size_factor = factor;
          const auto program = apps::make_app(name, config);
          double base = 0;
          if (factor == 1.0) {
            base = shared.of(name, kBaseline).baseline_s;
          } else {
            system::SystemModel base_system;
            base = baseline::run_host_only(base_system, program).total.value();
          }
          system::SystemModel system;
          const auto result = runtime::ActiveRuntime(system).run(program);
          return Scaled{program.total_storage_bytes().as_double() / 1e9, base,
                        base / result.end_to_end().value(),
                        static_cast<double>(result.plan.csd_line_count()),
                        result.sampling_overhead.value()};
        },
        jobs);
    bench::print_header("Dataset scaling: " + name);
    std::printf("%-10s %12s %12s %10s %8s %12s\n", "scale", "data",
                "baseline", "activecpp", "csd", "sampling");
    bench::print_rule();
    for (std::size_t f = 0; f < factors.size(); ++f) {
      const auto& r = runs[f];
      rows.push_back(Row("E11")
                         .str("app", name)
                         .cell("scale", "%9.3fx", factors[f])
                         .cell("data_gb", " %9.2f GB", r.data_gb)
                         .cell("baseline_s", " %11.3fs", r.baseline_s)
                         .cell("speedup", " %9.2fx", r.speedup)
                         .cell("csd_lines", " %8.0f", r.csd_lines)
                         .cell("sampling_s", " %11.4fs\n", r.sampling_s)
                         .done());
    }
  }
  std::printf(
      "\nexpected: speedups grow toward an asymptote with dataset size; at "
      "tiny sizes\nthe fixed sampling/codegen costs eat the gain but the "
      "planner never loses much\n(it simply keeps lines on the host when "
      "Equation 1 says so).\n");
  return rows;
}

// E12 — future work (§VI): the three-way DP projects optimal host/CSD/GPU
// placements from the true per-line estimates, then sweeps the GPU's
// effective speedup (a contended GPU acts like a smaller multiplier, the
// way Figure 2 treats the CSE).  Projection only.
Rows future_gpu(const Comparators& shared, unsigned jobs) {
  const auto table1 = apps::table1_apps();
  const auto cells = [](Row& row, const plan::ThreeWayResult& r) {
    using plan::Unit;
    std::string placements;
    for (const auto u : r.placement) {
      placements += u == Unit::Csd ? 'C' : u == Unit::Gpu ? 'G' : 'h';
    }
    return row
        .cell("csd_lines", " %8.0f", static_cast<double>(r.count(Unit::Csd)))
        .cell("gpu_lines", " %8.0f", static_cast<double>(r.count(Unit::Gpu)))
        .text("placements", "  %s\n", placements)
        .done();
  };
  const auto projections = per_app(
      table1, jobs,
      [&](const ir::Program& program, system::SystemModel& system) {
        return plan::explore_three_way(
            program, shared.of(program.name(), kTruth).truth, system,
            host::Gpu());
      });
  bench::print_header(
      "Future work: three-way host/CSD/GPU placement (projected, RTX-2080 "
      "class fully available)");
  std::printf("%-14s %10s %10s %10s %8s %8s  %s\n", "app", "host-only",
              "host+csd", "+gpu", "csd", "gpu", "placements");
  bench::print_rule();
  Rows rows;
  for (std::size_t i = 0; i < table1.size(); ++i) {
    const auto& r = projections[i];
    Row row("E12");
    row.text("app", "%-14s", table1[i].name)
        .cell("host_only_s", " %9.2fs", r.projected_host_only.value())
        .cell("host_csd_s", " %9.2fs", r.projected_two_way.value())
        .cell("gpu_s", " %9.2fs", r.projected.value());
    rows.push_back(cells(row, r));
  }

  bench::print_header(
      "Where the CSD's niche re-emerges: tpch-q6 vs effective GPU speedup");
  std::printf("%-14s %12s %8s %8s  %s\n", "gpu speedup", "projected", "csd",
              "gpu", "placements");
  bench::print_rule();
  // Each point is one DP over tpch-q6's lines: too small to fan out.
  const auto program = apps::make_app("tpch-q6");
  const system::SystemModel system;
  for (const double speedup : {40.0, 10.0, 4.0, 2.0, 1.0}) {
    host::GpuConfig gpu;
    gpu.speedup_vs_host_core = speedup;
    const auto r = plan::explore_three_way(
        program, shared.of(program.name(), kTruth).truth, system,
        host::Gpu(gpu));
    Row row("E12");
    row.str("app", program.name())
        .cell("gpu_speedup", "%13.0fx", speedup)
        .cell("projected_s", " %11.2fs", r.projected.value());
    rows.push_back(cells(row, r));
  }
  bench::print_rule();
  std::printf(
      "projected only — the execution engine stays faithful to the paper's\n"
      "host+CSD system; this quantifies section VI's 'migrate tasks among different\n"
      "compute units'.  A dedicated big GPU dominates these workloads; ISP's\n"
      "value concentrates where the paper's dynamics live — the accelerator\n"
      "contended away, the link saturated, or no accelerator at all.\n");
  return rows;
}

// The driver: each experiment's id, function and needs, in run order (E11
// runs three functions).
struct Experiment {
  const char* id;
  Rows (*run)(const Comparators& shared, unsigned jobs);
  /// The comparators `run` reads: the Kind bits, for every app listed.
  std::vector<std::pair<unsigned, std::vector<std::string>>> needs;
};

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> list = [] {
    std::vector<std::string> all, table1;
    for (const auto& app : apps::all_apps()) {
      all.push_back(app.name);
      if (app.in_table1) table1.push_back(app.name);
    }
    return std::vector<Experiment>{
        {"E1", fig2_static_isp, {{kBaseline | kOracle, kTpch}}},
        {"E2", table1_workloads, {}},
        {"E3", fig4_overall, {{kBaseline | kOracle, table1}}},
        {"E4", fig5_migration, {{kBaseline, all}}},
        {"E5", estimation_accuracy, {{kTruth, all}}},
        {"E6", runtime_opt, {{kBaseline, table1}}},
        {"E7", eq1_sweep, {{kOracle, table1}}},
        {"E9", ablation_sensitivity, {}},
        {"E10", dynamics_extra, {{kBaseline, {"tpch-q6"}}}},
        {"E11", work_sharing, {{kBaseline | kOracle, kTpch}}},
        {"E11", monitor_ablation, {{kBaseline, {"tpch-q6"}}}},
        {"E11", scaling_study, {{kBaseline, kScalingApps}}},
        {"E12", future_gpu, {{kTruth, table1}}}};
  }();
  return list;
}

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
    for (const auto& e : experiments()) {
      if (id == "all" || id == e.id) chosen.insert(e.id);
    }
    if (id != "all" && chosen.count(id) == 0) {
      usage_error("--experiment: '" + id + "' is not E1..E7, E9..E12 or all");
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

  std::map<std::string, unsigned> wanted;  // app -> Kind bits
  for (const auto& e : experiments()) {
    if (chosen.count(e.id) == 0) continue;
    for (const auto& [kinds, apps] : e.needs) {
      for (const auto& app : apps) wanted[app] |= kinds;
    }
  }
  const Comparators shared(wanted, jobs);
  Rows rows;
  for (const auto& e : experiments()) {
    if (chosen.count(e.id) == 0) continue;
    const Rows experiment = e.run(shared, jobs);
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
