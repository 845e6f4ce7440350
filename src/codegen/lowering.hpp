// Lowering: turn (program, plan, mode) into the pair of executables the
// engine runs (§III-C).
//
// Contiguous runs of CSD-placed lines become one CSD function each — the
// unit ActivePy enqueues on the call queue — because Algorithm 1 already
// priced the boundary transfers of each run.  Every CSD line carries the
// patched status-update code; host lines do not.  The generated
// CSD binary is "emitted into the target device memory location" at start of
// run, which the engine charges as a CodeImage transfer.
//
// Lowering plans no memory.  Where each object lives (§III-C(a)) is the
// engine's residency tracking, and which boundary copies the shared address
// space absorbs is RuntimeOverheadModel::pays_marshalling.
#pragma once

#include <cstdint>
#include <vector>

#include "codegen/exec_mode.hpp"
#include "ir/plan.hpp"
#include "ir/program.hpp"
#include "mem/address_space.hpp"

namespace isp::codegen {

struct LoweredLine {
  std::uint32_t index = 0;
  ir::Placement placement = ir::Placement::Host;
  bool enters_csd_group = false;  // first line of a CSD run: call invocation
  bool marshalling = false;       // boundary copies paid under this mode
};

struct LoweredProgram {
  ExecMode mode = ExecMode::CompiledNoCopy;
  std::vector<LoweredLine> lines;
  Bytes csd_code_image;      // generated device binary size
  Seconds compile_latency;   // charged once before execution
};

struct LoweringOptions {
  /// Generated machine code per CSD line (drives the code-image transfer).
  Bytes code_bytes_per_line = Bytes{32 * 1024};
};

// The AddressSpace is unread; perfbench/pipeline.cpp still passes it.
[[nodiscard]] LoweredProgram lower(const ir::Program& program,
                                   const ir::Plan& plan,
                                   const mem::AddressSpace&,
                                   ExecMode mode,
                                   const LoweringOptions& options = {},
                                   const RuntimeOverheadModel& overhead = {});

}  // namespace isp::codegen
