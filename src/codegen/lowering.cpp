#include "codegen/lowering.hpp"

#include "common/error.hpp"

namespace isp::codegen {

LoweredProgram lower(const ir::Program& program, const ir::Plan& plan,
                     const mem::AddressSpace&, ExecMode mode,
                     const LoweringOptions& options,
                     const RuntimeOverheadModel& overhead) {
  ISP_CHECK(plan.placement.size() == program.line_count(),
            "plan does not match program");

  LoweredProgram out;
  out.mode = mode;

  const bool marshals = overhead.pays_marshalling(mode);
  std::uint64_t csd_lines = 0;

  for (std::size_t i = 0; i < program.line_count(); ++i) {
    LoweredLine lowered;
    lowered.index = static_cast<std::uint32_t>(i);
    lowered.placement = plan.placement[i];

    if (lowered.placement == ir::Placement::Csd) {
      ++csd_lines;
      lowered.enters_csd_group =
          (i == 0 || plan.placement[i - 1] != ir::Placement::Csd);
    }

    // Marshalling is a property of the runtime mode: the shared mutable
    // address space of CompiledNoCopy/NativeC absorbs every boundary copy
    // (§III-C(c)); Interpreted/Compiled pay it on the line's volumes.
    lowered.marshalling = marshals;
    out.lines.push_back(lowered);
  }

  out.csd_code_image = Bytes{csd_lines * options.code_bytes_per_line.count()};
  out.compile_latency = overhead.pays_compile(mode) ? overhead.compile_latency
                                                    : Seconds::zero();
  return out;
}

}  // namespace isp::codegen
