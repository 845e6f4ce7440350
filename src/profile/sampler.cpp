#include "profile/sampler.hpp"

#include "common/error.hpp"
#include "runtime/engine.hpp"

namespace isp::profile {

SampleSet Sampler::run(const ir::Program& program) {
  ISP_CHECK(!config_.fractions.empty(), "sampler needs scaling factors");
  program.validate();

  SampleSet set;
  const auto plan = ir::Plan::host_only(program.line_count());

  for (const double fraction : config_.fractions) {
    auto store = program.make_sampled_store(fraction);

    runtime::EngineOptions options;
    options.monitoring = false;
    options.migration = false;
    // Cython compilation is charged once, on the raw run; the sampling
    // phase interprets through the already-initialised runtime.
    options.overhead.compile_latency = Seconds::zero();

    auto report = runtime::run_program(*system_, program, plan, config_.mode,
                                       options, &store);

    // Element counts per line, from what each line actually consumed.
    std::vector<double> n_elems;
    n_elems.reserve(report.lines.size());
    for (std::size_t i = 0; i < report.lines.size(); ++i) {
      n_elems.push_back(
          program.lines()[i].elems_for(report.lines[i].in_bytes));
    }
    accumulate(set, fraction, report, n_elems);
  }
  return set;
}

}  // namespace isp::profile
