// Unit tests: exec-mode overhead model and lowering edges.
#include <gtest/gtest.h>

#include "codegen/exec_mode.hpp"
#include "codegen/lowering.hpp"
#include "system/model.hpp"

namespace isp::codegen {
namespace {

TEST(ExecMode, Names) {
  EXPECT_EQ(to_string(ExecMode::NativeC), "native-c");
  EXPECT_EQ(to_string(ExecMode::Interpreted), "interpreted");
  EXPECT_EQ(to_string(ExecMode::Compiled), "compiled");
  EXPECT_EQ(to_string(ExecMode::CompiledNoCopy), "compiled-nocopy");
}

TEST(ExecMode, ComputeMultipliersOrdered) {
  const RuntimeOverheadModel model;
  EXPECT_DOUBLE_EQ(model.compute_multiplier(ExecMode::NativeC), 1.0);
  EXPECT_GT(model.compute_multiplier(ExecMode::Interpreted),
            model.compute_multiplier(ExecMode::Compiled));
  EXPECT_EQ(model.compute_multiplier(ExecMode::Compiled),
            model.compute_multiplier(ExecMode::CompiledNoCopy));
  EXPECT_GT(model.compute_multiplier(ExecMode::CompiledNoCopy), 1.0);
}

TEST(ExecMode, MarshallingOnlyWithoutElimination) {
  const RuntimeOverheadModel model;
  EXPECT_TRUE(model.pays_marshalling(ExecMode::Interpreted));
  EXPECT_TRUE(model.pays_marshalling(ExecMode::Compiled));
  EXPECT_FALSE(model.pays_marshalling(ExecMode::CompiledNoCopy));
  EXPECT_FALSE(model.pays_marshalling(ExecMode::NativeC));
}

TEST(ExecMode, DispatchOnlyWhenInterpreted) {
  const RuntimeOverheadModel model;
  EXPECT_GT(model.dispatch_overhead(ExecMode::Interpreted).value(), 0.0);
  EXPECT_DOUBLE_EQ(model.dispatch_overhead(ExecMode::Compiled).value(), 0.0);
}

TEST(ExecMode, CompileChargedForCythonModes) {
  const RuntimeOverheadModel model;
  EXPECT_FALSE(model.pays_compile(ExecMode::NativeC));
  EXPECT_FALSE(model.pays_compile(ExecMode::Interpreted));
  EXPECT_TRUE(model.pays_compile(ExecMode::Compiled));
  EXPECT_TRUE(model.pays_compile(ExecMode::CompiledNoCopy));
}

ir::Program two_line_program() {
  ir::Program program("two", 16.0);
  ir::Dataset d;
  d.object.name = "in";
  d.object.location = mem::Location::Storage;
  d.object.virtual_bytes = Bytes{1 << 20};
  d.object.physical.resize_elems<float>(1024);
  d.elem_bytes = sizeof(float);
  program.add_dataset(std::move(d));

  for (int i = 0; i < 2; ++i) {
    ir::CodeRegion line;
    line.name = "l" + std::to_string(i);
    line.inputs = {i == 0 ? "in" : "mid"};
    line.outputs = {i == 0 ? "mid" : "out"};
    line.elem_bytes = sizeof(float);
    program.add_line(std::move(line));
  }
  return program;
}

TEST(Lowering, HostOnlyHasNoCsdArtifacts) {
  system::SystemModel system;
  const auto program = two_line_program();
  const auto lowered =
      lower(program, ir::Plan::host_only(2), system.address_space(),
            ExecMode::CompiledNoCopy);
  EXPECT_EQ(lowered.csd_code_image.count(), 0u);
  for (const auto& line : lowered.lines) {
    EXPECT_FALSE(line.enters_csd_group);
  }
}

TEST(Lowering, AlternatingPlacementsMakeTwoGroups) {
  system::SystemModel system;
  auto program = two_line_program();
  ir::CodeRegion extra;
  extra.name = "l2";
  extra.inputs = {"out"};
  extra.outputs = {"final"};
  program.add_line(std::move(extra));

  ir::Plan plan = ir::Plan::host_only(3);
  plan.placement[0] = ir::Placement::Csd;
  plan.placement[2] = ir::Placement::Csd;
  const auto lowered = lower(program, plan, system.address_space(),
                             ExecMode::CompiledNoCopy);
  EXPECT_TRUE(lowered.lines[0].enters_csd_group);
  EXPECT_FALSE(lowered.lines[1].enters_csd_group);
  EXPECT_TRUE(lowered.lines[2].enters_csd_group);
}

TEST(Lowering, RejectsMismatchedPlan) {
  system::SystemModel system;
  const auto program = two_line_program();
  EXPECT_THROW(lower(program, ir::Plan::host_only(5),
                     system.address_space(), ExecMode::NativeC),
               Error);
}

}  // namespace
}  // namespace isp::codegen
