// Workload `pipeline`: the Figure-3 pipeline through ActiveRuntime::run.
//
// All ten registered apps at one small size_factor, each run once plain and
// once under the Figure-5 contention trigger (CSE availability drops when
// the CSD work is half done).  Programs and system models are built in
// set-up; the seed only shuffles the order of the 20 runs in a pass.  No
// serving, storage backend or cache runs here: the sampler, the fit,
// Algorithm 1, lowering, the engine walk, the kernels and the monitor do
// all the work.
//
// The timed loop calls ActiveRuntime::run.  The traced loop calls the same
// stages one by one (Sampler::run, build_estimates, assign_csd, lower,
// Engine::run) with a span around each, and must reproduce the untraced
// reports bit for bit.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "bench.hpp"
#include "codegen/lowering.hpp"
#include "common/digest.hpp"
#include "plan/assignment.hpp"
#include "plan/device_factor.hpp"
#include "plan/estimates.hpp"
#include "profile/sampler.hpp"
#include "runtime/active_runtime.hpp"

namespace perfbench {
namespace {

constexpr double kSizeFactor = 0.05;

struct Case {
  std::string key;  // "<app>/plain" or "<app>/contended"
  const isp::ir::Program* program = nullptr;
  isp::runtime::RunConfig config;
};

struct Inputs {
  std::vector<isp::ir::Program> programs;
  std::vector<Case> cases;  // in the seed's run order
  /// Every run uses this one platform model.  A run leaves nothing behind
  /// in it that changes a later run: the per-run digest check would fail.
  std::unique_ptr<isp::system::SystemModel> system;
};

Inputs build_inputs(std::uint64_t variant) {
  Inputs in;
  isp::apps::AppConfig app_config;
  app_config.size_factor = kSizeFactor;
  const auto& apps = isp::apps::all_apps();
  in.programs.reserve(apps.size());
  for (const auto& app : apps) {
    in.programs.push_back(app.make(app_config));
    in.programs.back().validate();
  }
  std::vector<Case> cases;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    for (const bool contended : {false, true}) {
      Case c;
      c.key = apps[a].name + (contended ? "/contended" : "/plain");
      c.program = &in.programs[a];
      if (contended) {
        c.config.engine.contention.enabled = true;
        c.config.engine.contention.at_csd_progress = 0.5;
        c.config.engine.contention.availability = 0.1;
      }
      cases.push_back(std::move(c));
    }
  }
  in.system = std::make_unique<isp::system::SystemModel>();
  // Fisher-Yates with the benchmark's own generator, so the order depends
  // on nothing but the variant.
  std::vector<std::size_t> order(cases.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::uint64_t state = 0x70697065ULL + variant;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[mix64(state) % i]);
  }
  for (const std::size_t i : order) in.cases.push_back(std::move(cases[i]));
  return in;
}

std::string placement_string(const isp::ir::Plan& plan) {
  std::string s;
  for (const auto p : plan.placement) {
    s += p == isp::ir::Placement::Csd ? 'C' : 'H';
  }
  return s;
}

/// What one run must reproduce: its placements and its report.
struct RunDigest {
  std::string placement;
  std::uint64_t report = 0;

  bool operator==(const RunDigest&) const = default;
};

RunDigest digest_of(const isp::ir::Plan& plan,
                    const isp::runtime::ExecutionReport& report) {
  return RunDigest{placement_string(plan),
                   isp::fnv1a(isp::kFnvOffset, report.to_json())};
}

/// Per-pass work counters, folded from each run.
struct Work {
  std::uint64_t runs = 0;
  std::uint64_t engine_runs = 0;
  std::uint64_t sample_runs = 0;
  std::uint64_t lines = 0;
  std::uint64_t csd_lines = 0;
  std::uint64_t migrations = 0;
  std::uint64_t status_updates = 0;

  void add(const isp::runtime::RunResult& r, std::size_t fractions) {
    runs += 1;
    sample_runs += fractions;
    engine_runs += fractions + 1;
    lines += r.report.lines.size();
    csd_lines += r.report.lines_on_csd();
    migrations += r.report.migrations;
    status_updates += r.report.status_updates;
  }
  bool operator==(const Work&) const = default;
};

/// Stage-by-stage replica of ActiveRuntime::run with a span per stage.
isp::runtime::RunResult traced_run(isp::system::SystemModel& system,
                                   const isp::ir::Program& program,
                                   const isp::runtime::RunConfig& config,
                                   Tracer& tracer) {
  using namespace isp;
  program.validate();
  runtime::RunResult result;
  {
    Scope s(&tracer, "profile.sample");
    profile::Sampler sampler(system, config.sampler);
    result.samples = sampler.run(program);
  }
  result.sampling_overhead = result.samples.overhead;
  std::vector<ir::LineEstimate> estimates;
  {
    Scope s(&tracer, "plan.estimate");
    const auto factor = plan::device_factor_from_counters(system);
    result.device_factor = factor.c;
    estimates = plan::build_estimates(program, result.samples, factor, system,
                                      &result.diagnostics);
  }
  plan::AssignmentResult assignment;
  {
    Scope s(&tracer, "plan.assign");
    assignment = plan::assign_csd(program, std::move(estimates), system);
  }
  result.plan = assignment.plan;
  result.projected_host = assignment.projected_host;
  result.projected_csd = assignment.projected;
  codegen::LoweredProgram lowered;
  {
    Scope s(&tracer, "codegen.lower");
    lowered = codegen::lower(program, result.plan, system.address_space(),
                             config.mode, {}, config.engine.overhead);
  }
  {
    Scope s(&tracer, "runtime.engine");
    runtime::Engine engine(system);
    result.report = engine.run(program, result.plan, lowered, config.engine);
  }
  return result;
}

}  // namespace

Result run_pipeline(const Options& options) {
  const std::uint64_t variant = options.seed % kVariants;
  SetupTimes setup(options.seconds, kSetupSamples);
  const auto build = [&] { return build_inputs(variant); };
  const Inputs in = setup.measure(build);
  const std::size_t fractions = isp::profile::SamplerConfig{}.fractions.size();

  Result result;
  std::vector<RunDigest> expected;  // per case, from the first pass
  Work first_work;
  std::vector<double> pass_times;         // untraced passes
  std::vector<double> traced_pass_times;
  BestTimes best;  // per case, untraced

  // One pass over the 20 cases; a tracer selects the staged, traced path.
  auto pass = [&](std::uint64_t iteration, Tracer* tracer) {
    if (tracer) tracer->set_iteration(iteration);
    Work work;
    double busy = 0.0;
    for (std::size_t i = 0; i < in.cases.size(); ++i) {
      const Case& c = in.cases[i];
      isp::runtime::RunResult r;
      const auto t0 = Clock::now();
      if (tracer != nullptr) {
        Scope s(tracer, "pipeline.run");
        r = traced_run(*in.system, *c.program, c.config, *tracer);
      } else {
        isp::runtime::ActiveRuntime runtime(*in.system);
        r = runtime.run(*c.program, c.config);
      }
      const double t = seconds_since(t0);
      busy += t;
      if (tracer == nullptr) best.add(i, t);
      work.add(r, fractions);
      const RunDigest d = digest_of(r.plan, r.report);
      ++result.attempted;
      if (iteration == 0) {
        expected.push_back(d);  // the first pass is the reference
      } else if (!(d == expected[i])) {
        result.fail(c.key + " differs from the first pass (iteration " +
                    std::to_string(iteration) +
                    (tracer ? ", staged run)" : ")"));
      }
    }
    if (iteration == 0) {
      first_work = work;
    } else if (!(work == first_work)) {
      result.fail("work counters changed in iteration " +
                  std::to_string(iteration));
    }
    (tracer ? traced_pass_times : pass_times).push_back(busy);
  };

  Tracer tracer;
  SpeedProbe probe;
  const std::uint64_t traced =
      measured_loop(options, tracer, probe, pass, [&](double elapsed) {
        if (setup.due(elapsed)) setup.remeasure(build);
      });
  const double scale = probe.scale();
  probe.log();

  for (std::size_t i = 0; i < in.cases.size(); ++i) {
    result.digests[in.cases[i].key + ".placement"] = expected[i].placement;
    result.digests[in.cases[i].key + ".report"] = hex64(expected[i].report);
  }
  result.counters = {{"runs", first_work.runs},
                     {"engine_runs", first_work.engine_runs},
                     {"sample_runs", first_work.sample_runs},
                     {"lines", first_work.lines},
                     {"csd_lines", first_work.csd_lines},
                     {"migrations", first_work.migrations},
                     {"status_updates", first_work.status_updates}};

  if (!options.trace) {
    result.metrics = {
        {"setup_s", scale * setup.median_seconds(), "s"},
        {"work_per_s",
         static_cast<double>(first_work.runs) / (scale * best.total()),
         "1/s"},
        {"call_p50_ms", 1e3 * scale * median(best.units()), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    return result;
  }

  if (!options.trace_out.empty() && !tracer.write(options.trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 options.trace_out.c_str());
  }
  const auto self = tracer.self_seconds();
  auto per_pass = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end()
               ? 0.0
               : scale * it->second / static_cast<double>(traced);
  };
  result.metrics = {
      {"profile.sample_s", per_pass("profile.sample"), "s"},
      {"profile.sample_runs", static_cast<double>(first_work.sample_runs),
       "count"},
      {"plan.estimate_s", per_pass("plan.estimate"), "s"},
      {"plan.assign_s", per_pass("plan.assign"), "s"},
      {"codegen.lower_s", per_pass("codegen.lower"), "s"},
      {"runtime.engine_s", per_pass("runtime.engine"), "s"},
      {"runtime.lines", static_cast<double>(first_work.lines), "count"},
      {"runtime.migrations", static_cast<double>(first_work.migrations),
       "count"},
      {"runtime.status_updates",
       static_cast<double>(first_work.status_updates), "count"},
      {"trace.overhead_frac", overhead(traced_pass_times, pass_times),
       "ratio"},
  };
  return result;
}

}  // namespace perfbench
