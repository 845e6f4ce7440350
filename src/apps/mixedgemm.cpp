// MixedGEMM: mixed-precision batched GEMM with epilogue (Table I: 9.4 GB).
//
// The inference-serving shape: float32 activation/weight tiles are loaded
// and down-converted to bfloat16 (halving their volume — which is what makes
// the load lines independently profitable on the CSD), multiplied in 64×64
// batches with float32 accumulation, passed through a bias+GELU epilogue,
// and reduced 4096:1 into per-tile logit summaries.  One of the Figure-5
// workloads ActivePy chooses to migrate at 50% availability.
#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "apps/data_gen.hpp"
#include "apps/detail.hpp"
#include "apps/tanh_lanes.hpp"

namespace isp::apps {

namespace {

constexpr std::size_t kDim = detail::kGemmDim;
/// Output columns accumulated in registers at a time.
constexpr std::size_t kColBlock = 16;
constexpr std::size_t kTileBytesF32 = kDim * kDim * sizeof(float);
constexpr std::size_t kTileBytesBf16 = kDim * kDim * sizeof(std::uint16_t);

using detail::F4;
using detail::kLanes;

std::uint16_t to_bf16(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return static_cast<std::uint16_t>(bits >> 16);
}

float from_bf16(std::uint16_t v) {
  const std::uint32_t bits = static_cast<std::uint32_t>(v) << 16;
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

/// GELU (tanh form) of logit + 0.1, four lanes.
F4 bias_gelu_lanes(F4 logit) {
  const F4 x = logit + 0.1F;
  const F4 cube = ((0.044715F * x) * x) * x;
  return (0.5F * x) * (1.0F + detail::tanh_lanes(0.7978845608F * (x + cube)));
}

/// A fp32→bf16 conversion-load line (shared shape for both operands).
ir::CodeRegion convert_load_line(const char* in_name, const char* out_name) {
  ir::CodeRegion line;
  line.name = std::string(out_name) + " = load_bf16(" + in_name + ")";
  line.inputs = {in_name};
  line.outputs = {out_name};
  line.elem_bytes = static_cast<double>(kTileBytesF32);
  line.cost.cycles_per_elem = 1.5 * kTileBytesF32;  // 1.5 cycles/byte convert
  line.host_threads = 1;
  line.csd_threads = 6;
  line.chunks = 8;
  line.kernel = [](ir::KernelCtx& ctx) {
    const auto in = ctx.input(0).physical.as<float>();
    auto& out = ctx.output(0);
    out.physical.resize_elems<std::uint16_t>(in.size());
    auto dst = out.physical.as<std::uint16_t>();
    for (std::size_t i = 0; i < in.size(); ++i) dst[i] = to_bf16(in[i]);
  };
  return line;
}

}  // namespace

namespace detail {

void gemm_tile_bf16(const std::uint16_t* a, const std::uint16_t* b,
                    float* c) {
  std::array<float, kDim * kDim> bf{};
  for (std::size_t i = 0; i < kDim * kDim; ++i) bf[i] = from_bf16(b[i]);
  for (std::size_t i = 0; i < kDim; ++i) {
    std::array<float, kDim> ai{};
    for (std::size_t k = 0; k < kDim; ++k) ai[k] = from_bf16(a[i * kDim + k]);
    for (std::size_t j0 = 0; j0 < kDim; j0 += kColBlock) {
      std::array<float, kColBlock> acc{};
      for (std::size_t k = 0; k < kDim; ++k) {
        const float* bk = bf.data() + k * kDim + j0;
        for (std::size_t j = 0; j < kColBlock; ++j) acc[j] += ai[k] * bk[j];
      }
      std::copy(acc.begin(), acc.end(), c + i * kDim + j0);
    }
  }
}

void bias_gelu(std::span<const float> logits, std::span<float> out) {
  ISP_CHECK(out.size() == logits.size(),
            logits.size() << " logits, " << out.size() << " outputs");
  const std::size_t n = logits.size();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    F4 v{};
    std::memcpy(&v, logits.data() + i, sizeof(v));
    v = bias_gelu_lanes(v);
    std::memcpy(out.data() + i, &v, sizeof(v));
  }
  if (i == n) return;
  // A short last block repeats its last logit in the spare lanes.
  F4 v{};
  for (std::size_t l = 0; l < kLanes; ++l) {
    v[l] = logits[std::min(i + l, n - 1)];
  }
  v = bias_gelu_lanes(v);
  for (std::size_t l = 0; i + l < n; ++l) out[i + l] = v[l];
}

}  // namespace detail

ir::Program make_mixedgemm(const AppConfig& config) {
  ir::Program program("mixedgemm", config.virtual_scale);

  const Bytes half = detail::table_bytes(4.7, config);
  const std::size_t tiles = detail::phys_elems(half, config, kTileBytesF32);
  for (const char* name : {"activations_file", "weights_file"}) {
    const std::uint64_t stream = name[0] == 'a' ? 0x11aa : 0x22bb;
    program.add_dataset(storage_dataset(
        name, half, tiles * kTileBytesF32,
        static_cast<std::uint32_t>(kTileBytesF32), [&](mem::Buffer& b) {
          fill_floats(b, tiles * kDim * kDim, Rng{config.seed}.fork(stream));
        }));
  }

  program.add_line(convert_load_line("activations_file", "acts"));
  program.add_line(convert_load_line("weights_file", "weights"));

  {
    ir::CodeRegion line;
    line.name = "logits = batch_gemm_bf16(acts, weights)";
    line.inputs = {"acts", "weights"};
    line.outputs = {"logits"};
    line.elem_bytes = 2.0 * kTileBytesBf16;  // one bf16 tile pair
    // 2·64³ flops per pair at ~0.5 flops/cycle with conversion overhead.
    line.cost.cycles_per_elem = static_cast<double>(kDim * kDim * kDim);
    line.host_threads = 1;
    line.csd_threads = 7;
    line.chunks = 128;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto a = ctx.input(0).physical.as<std::uint16_t>();
      const auto b = ctx.input(1).physical.as<std::uint16_t>();
      const std::size_t pairs = std::min(a.size(), b.size()) / (kDim * kDim);
      auto& out = ctx.output(0);
      out.physical.resize_elems<float>(pairs * kDim * kDim);
      auto c = out.physical.as<float>();
      for (std::size_t p = 0; p < pairs; ++p) {
        detail::gemm_tile_bf16(a.data() + p * kDim * kDim,
                               b.data() + p * kDim * kDim,
                               c.data() + p * kDim * kDim);
      }
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "activated = bias_gelu(logits)";
    line.inputs = {"logits"};
    line.outputs = {"activated"};
    line.elem_bytes = sizeof(float);
    line.cost.cycles_per_elem = 4.0;
    line.host_threads = 1;
    line.csd_threads = 8;
    line.chunks = 64;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto in = ctx.input(0).physical.as<float>();
      auto& out = ctx.output(0);
      out.physical.resize_elems<float>(in.size());
      detail::bias_gelu(in, out.physical.as<float>());
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "summary = reduce_tiles(activated)";
    line.inputs = {"activated"};
    line.outputs = {"logit_summary"};
    line.elem_bytes = sizeof(float);
    line.cost.cycles_per_elem = 2.0;
    line.host_threads = 1;
    line.csd_threads = 8;
    line.chunks = 8;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto in = ctx.input(0).physical.as<float>();
      const std::size_t per_tile = kDim * kDim;
      const std::size_t tile_count = in.size() / per_tile;
      auto& out = ctx.output(0);
      out.physical.resize_elems<float>(tile_count > 0 ? tile_count : 1);
      auto dst = out.physical.as<float>();
      if (tile_count == 0) {
        dst[0] = 0.0F;
        return;
      }
      for (std::size_t t = 0; t < tile_count; ++t) {
        float sum = 0.0F;
        for (std::size_t i = 0; i < per_tile; ++i) {
          sum += in[t * per_tile + i];
        }
        dst[t] = sum / static_cast<float>(per_tile);
      }
    };
    program.add_line(std::move(line));
  }

  return program;
}

}  // namespace isp::apps
