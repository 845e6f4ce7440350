// Internal helpers shared by the application builders, and the kernels
// their tests call directly.
#pragma once

#include <cstdint>
#include <span>

#include "apps/data_gen.hpp"
#include "apps/registry.hpp"
#include "common/units.hpp"

namespace isp::apps::detail {

/// Table-I data size (decimal GB) scaled by the config's size factor.
inline Bytes table_bytes(double gigabytes, const AppConfig& config) {
  return Bytes{static_cast<std::uint64_t>(gigabytes * 1e9 *
                                          config.size_factor)};
}

/// Physical element count backing a virtual volume.
inline std::size_t phys_elems(Bytes virtual_bytes, const AppConfig& config,
                              std::size_t elem_bytes) {
  const double phys = virtual_bytes.as_double() / config.virtual_scale;
  const auto n = static_cast<std::size_t>(phys / elem_bytes);
  return n > 0 ? n : 1;
}

// ---- Kernels --------------------------------------------------------------
//
// Each kernel below is a byte-identical contract: a faster rewrite must
// reproduce every output bit (KernelGolden.* pins them), and its plain
// scalar form lives on only as a test oracle.

/// The LightGBM forest: 40 complete-layout trees of depth 6 (63 nodes each,
/// breadth-first, tree-major) over 32-feature single-precision rows.
inline constexpr std::size_t kForestTrees = 40;
inline constexpr std::uint32_t kForestDepth = 6;
inline constexpr std::uint32_t kForestFeatures = 32;

/// margins[r] = the sum, over trees 0..39 in order, of the leaf value row r
/// reaches; a node with feature < 0 is a leaf, and a row goes left when
/// `row[feature] <= threshold` (so NaN goes right).  Rows are scored in
/// lockstep blocks of 8.  Throws isp::Error if `forest` is not 40 × 63 nodes,
/// an internal node's feature is 32 or more, or a child index would leave
/// its tree, and if `features` holds fewer than margins.size() rows.
void forest_predict(std::span<const float> features,
                    std::span<const TreeNode> forest, std::span<float> margins);

/// Edge of the square bf16 GEMM tile.
inline constexpr std::size_t kGemmDim = 64;

/// c = a · b for one 64×64 bf16 tile pair, accumulating in float with k
/// running 0..63 for every c[i][j] (no fused multiply-add).
void gemm_tile_bf16(const std::uint16_t* a, const std::uint16_t* b, float* c);

}  // namespace isp::apps::detail
