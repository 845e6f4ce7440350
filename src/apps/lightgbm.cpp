// LightGBM: gradient-boosted-decision-tree inference (Table I: 7.1 GB).
//
// A 40-tree, depth-6 forest scores 32-feature rows; the margin vector is
// squashed and thresholded into labels and summarised into a tiny histogram.
// Inference is branchy per row — the kind of code the CSE's in-order cores
// run at a disadvantage — so only part of the pipeline offloads profitably.
#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "apps/data_gen.hpp"
#include "apps/detail.hpp"
#include "common/error.hpp"

namespace isp::apps {

namespace {

using detail::kForestDepth;
using detail::kForestFeatures;
using detail::kForestTrees;

/// On-disk rows carry double-precision features (the ETL output)...
constexpr std::size_t kFileRowBytes = kForestFeatures * sizeof(double);
/// ...inference runs on single-precision rows.
constexpr std::size_t kRowBytes = kForestFeatures * sizeof(float);
constexpr std::size_t kNodesPerTree = (std::size_t{1} << kForestDepth) - 1;
/// Rows walked through each tree in lockstep.
constexpr std::size_t kBlock = 8;

/// Every walk stays inside its row and its tree: an internal node (feature
/// >= 0) reads a feature below 32 and has both children in the same tree.
void check_forest(std::span<const TreeNode> forest) {
  ISP_CHECK(forest.size() == kForestTrees * kNodesPerTree,
            "forest has " << forest.size() << " nodes, expected "
                          << kForestTrees * kNodesPerTree);
  for (std::size_t i = 0; i < forest.size(); ++i) {
    const std::int32_t feature = forest[i].feature;
    if (feature < 0) continue;
    const std::size_t node = i % kNodesPerTree;
    ISP_CHECK(static_cast<std::uint32_t>(feature) < kForestFeatures,
              "tree " << i / kNodesPerTree << " node " << node
                      << " splits on feature " << feature);
    ISP_CHECK(2 * node + 2 < kNodesPerTree,
              "tree " << i / kNodesPerTree << " node " << node
                      << " is internal at the leaf level");
  }
}

/// Scores `count` (1..8) rows.  Each hop of the lockstep walk moves every
/// row of the block one level down, so the eight dependent node loads
/// overlap; a row already on a leaf stays put.  A valid forest has its
/// leaves within kForestDepth - 1 hops.  A short block repeats its last row
/// in the spare lanes and stores only `count` margins.
void score_block(const float* rows, std::size_t count, const TreeNode* forest,
                 float* out) {
  std::array<const float*, kBlock> row{};
  for (std::size_t r = 0; r < kBlock; ++r) {
    row[r] = rows + (r < count ? r : count - 1) * kForestFeatures;
  }
  std::array<float, kBlock> margin{};
  for (std::size_t t = 0; t < kForestTrees; ++t) {
    const TreeNode* tree = forest + t * kNodesPerTree;
    std::array<std::uint32_t, kBlock> node{};
    for (std::uint32_t hop = 1; hop < kForestDepth; ++hop) {
      for (std::size_t r = 0; r < kBlock; ++r) {
        const TreeNode n = tree[node[r]];
        const bool leaf = n.feature < 0;
        const float v = row[r][leaf ? 0 : n.feature];
        const std::uint32_t child =
            2 * node[r] + 2 - static_cast<std::uint32_t>(v <= n.threshold);
        node[r] = leaf ? node[r] : child;
      }
    }
    for (std::size_t r = 0; r < kBlock; ++r) {
      margin[r] += tree[node[r]].threshold;  // leaf value
    }
  }
  for (std::size_t r = 0; r < count; ++r) out[r] = margin[r];
}

}  // namespace

namespace detail {

void forest_predict(std::span<const float> features,
                    std::span<const TreeNode> forest,
                    std::span<float> margins) {
  check_forest(forest);
  const std::size_t rows = margins.size();
  ISP_CHECK(features.size() / kForestFeatures >= rows,
            rows << " margins need " << rows * kForestFeatures
                 << " features, got " << features.size());
  for (std::size_t i = 0; i < rows; i += kBlock) {
    score_block(features.data() + i * kForestFeatures,
                std::min(kBlock, rows - i), forest.data(), margins.data() + i);
  }
}

}  // namespace detail

ir::Program make_lightgbm(const AppConfig& config) {
  ir::Program program("lightgbm", config.virtual_scale);

  const Bytes size = detail::table_bytes(7.1, config);
  const std::size_t rows = detail::phys_elems(size, config, kFileRowBytes);
  program.add_dataset(storage_dataset(
      "features_file", size, rows * kFileRowBytes,
      static_cast<std::uint32_t>(kFileRowBytes), [&](mem::Buffer& b) {
        fill_doubles(b, rows * kForestFeatures,
                     Rng{config.seed}.fork(0x16b0));
      }));

  // The trained model: a small memory-resident dataset the sampler must not
  // truncate.
  {
    ir::Dataset model;
    model.object.name = "model";
    model.object.location = mem::Location::HostDram;
    model.object.virtual_bytes = 8_MiB;
    fill_forest(model.object.physical, kForestTrees, kForestDepth,
                kForestFeatures, Rng{config.seed}.fork(0xf07e));
    model.elem_bytes = sizeof(TreeNode);
    model.sampler = [](const mem::DataObject& full, double) { return full; };
    program.add_dataset(std::move(model));
  }

  {
    ir::CodeRegion line;
    line.name = "features = load_f32(features_file)";
    line.inputs = {"features_file"};
    line.outputs = {"features"};
    line.elem_bytes = kFileRowBytes;
    line.cost.cycles_per_elem = 512.0;  // 2 cycles/byte decode+narrow
    line.host_threads = 1;
    line.csd_threads = 6;
    line.chunks = 64;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto in = ctx.input(0).physical.as<double>();
      auto& out = ctx.output(0);
      out.physical.resize_elems<float>(in.size());
      auto dst = out.physical.as<float>();
      for (std::size_t i = 0; i < in.size(); ++i) {
        dst[i] = static_cast<float>(in[i]);
      }
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "margins = forest_predict(features, model)";
    line.inputs = {"features", "model"};
    line.outputs = {"margins"};
    line.elem_bytes = kRowBytes;
    line.cost.cycles_per_elem = 1920.0;  // trees × depth × branchy hops
    line.host_threads = 1;
    line.csd_threads = 6;  // in-order cores lose on branchy traversal
    line.chunks = 128;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto feats = ctx.input(0).physical.as<float>();
      auto& out = ctx.output(0);
      out.physical.resize_elems<float>(feats.size() / kForestFeatures);
      detail::forest_predict(feats, ctx.input(1).physical.as<TreeNode>(),
                             out.physical.as<float>());
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "labels = sigmoid_threshold(margins)";
    line.inputs = {"margins"};
    line.outputs = {"labels"};
    line.elem_bytes = sizeof(float);
    line.cost.cycles_per_elem = 20.0;  // exp + compare
    line.host_threads = 1;
    line.csd_threads = 8;
    line.chunks = 8;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto margins = ctx.input(0).physical.as<float>();
      auto& out = ctx.output(0);
      out.physical.resize_elems<std::uint8_t>(margins.size());
      auto dst = out.physical.as<std::uint8_t>();
      for (std::size_t i = 0; i < margins.size(); ++i) {
        const float p = 1.0F / (1.0F + std::exp(-margins[i]));
        dst[i] = p >= 0.5F ? 1 : 0;
      }
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "summary = histogram(labels)";
    line.inputs = {"labels"};
    line.outputs = {"label_summary"};
    line.elem_bytes = 1.0;
    line.cost.cycles_per_elem = 2.0;
    line.host_threads = 1;
    line.csd_threads = 8;
    line.chunks = 4;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto labels = ctx.input(0).physical.as<std::uint8_t>();
      std::array<std::uint64_t, 2> histogram{};
      for (const auto label : labels) histogram[label & 1] += 1;
      auto& out = ctx.output(0);
      out.physical.resize_elems<std::uint64_t>(2);
      auto dst = out.physical.as<std::uint64_t>();
      dst[0] = histogram[0];
      dst[1] = histogram[1];
    };
    program.add_line(std::move(line));
  }

  return program;
}

}  // namespace isp::apps
