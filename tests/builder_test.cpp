// Tests: the fluent ProgramBuilder.
#include <gtest/gtest.h>

#include "baseline/baselines.hpp"
#include "ir/builder.hpp"
#include "runtime/active_runtime.hpp"

namespace isp {
namespace {

ir::Program build_wordcount() {
  return ir::ProgramBuilder("wordcount", 64.0)
      .storage_dataset("corpus", gigabytes(2.0), sizeof(std::uint32_t),
                       [](mem::Buffer& b, std::size_t bytes) {
                         b.resize_elems<std::uint32_t>(
                             bytes / sizeof(std::uint32_t));
                         Rng rng(5);
                         const ZipfDraw word(50000, 0.9);
                         for (auto& w : b.as<std::uint32_t>()) {
                           w = static_cast<std::uint32_t>(word(rng));
                         }
                       })
      .line("hits = match(corpus)")
      .reads("corpus")
      .writes("hits")
      .elem_bytes(sizeof(std::uint32_t))
      .cycles_per_elem(6.0)
      .csd_threads(6)
      .chunks(32)
      .kernel([](ir::KernelCtx& ctx) {
        const auto in = ctx.input(0).physical.as<std::uint32_t>();
        std::size_t kept = 0;
        for (const auto w : in) kept += (w < 100) ? 1 : 0;
        auto& out = ctx.output(0);
        out.physical.resize_elems<std::uint32_t>(kept > 0 ? kept : 1);
        auto dst = out.physical.as<std::uint32_t>();
        std::size_t i = 0;
        for (const auto w : in) {
          if (w < 100 && i < dst.size()) dst[i++] = w;
        }
      })
      .done()
      .line("counts = histogram(hits)")
      .reads("hits")
      .writes("counts")
      .elem_bytes(sizeof(std::uint32_t))
      .cycles_per_elem(4.0)
      .csd_threads(8)
      .kernel([](ir::KernelCtx& ctx) {
        const auto in = ctx.input(0).physical.as<std::uint32_t>();
        auto& out = ctx.output(0);
        out.physical.resize_elems<std::uint64_t>(100);
        auto dst = out.physical.as<std::uint64_t>();
        for (const auto w : in) {
          if (w < 100) ++dst[w];
        }
      })
      .done()
      .build();
}

TEST(ProgramBuilder, BuildsValidProgram) {
  const auto program = build_wordcount();
  EXPECT_EQ(program.name(), "wordcount");
  EXPECT_EQ(program.line_count(), 2u);
  EXPECT_NEAR(program.total_storage_bytes().as_double(), 2e9, 2e7);
  EXPECT_NO_THROW(program.validate());
}

TEST(ProgramBuilder, BuiltProgramRunsThroughThePipeline) {
  const auto program = build_wordcount();
  system::SystemModel system;
  const auto baseline = baseline::run_host_only(system, program);
  runtime::ActiveRuntime active(system);
  const auto result = active.run(program);
  EXPECT_GT(baseline.total.value() / result.end_to_end().value(), 1.0);
  EXPECT_GT(result.plan.csd_line_count(), 0u);
}

TEST(ProgramBuilder, RejectsLineWithoutOutput) {
  ir::ProgramBuilder builder("bad", 16.0);
  auto line = builder.line("dead end").reads("x");
  EXPECT_THROW(line.done(), Error);
}

TEST(ProgramBuilder, RejectsUnknownInputAtBuild) {
  EXPECT_THROW(ir::ProgramBuilder("bad", 16.0)
                   .line("y = f(ghost)")
                   .reads("ghost")
                   .writes("y")
                   .done()
                   .build(),
               Error);
}

TEST(ProgramBuilder, MemoryDatasetSurvivesSampling) {
  auto program =
      ir::ProgramBuilder("with-model", 16.0)
          .storage_dataset("data", Bytes{1 << 20}, 4,
                           [](mem::Buffer& b, std::size_t bytes) {
                             b.resize_elems<float>(bytes / 4);
                           })
          .memory_dataset("model", Bytes{4096}, 4,
                          [](mem::Buffer& b, std::size_t bytes) {
                            b.resize_elems<float>(bytes / 4);
                          })
          .line("out = apply(data, model)")
          .reads("data")
          .reads("model")
          .writes("out")
          .kernel([](ir::KernelCtx& ctx) {
            auto& out = ctx.output(0);
            out.physical.resize_elems<float>(1);
          })
          .done()
          .build();
  auto sampled = program.make_sampled_store(1.0 / 1024);
  EXPECT_EQ(sampled.at("model").physical.size_bytes(),
            program.make_store().at("model").physical.size_bytes());
  EXPECT_LT(sampled.at("data").physical.size_bytes(), 1u << 15);
}

}  // namespace
}  // namespace isp
