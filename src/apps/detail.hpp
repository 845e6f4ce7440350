// Internal helpers shared by the application builders, and the kernels
// their tests call directly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "apps/data_gen.hpp"
#include "apps/registry.hpp"
#include "common/error.hpp"
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

/// KMeans clusters 8-dimensional single-precision points into 8 clusters;
/// a centroid table is cluster-major (mean of cluster k, dimension j at
/// k * 8 + j).
inline constexpr std::uint32_t kKmeansDims = 8;
inline constexpr std::uint32_t kKmeansClusters = 8;

/// labels[i] = the cluster nearest to point i: the first k whose squared
/// distance (summed over j = 0..7 in order, no fused multiply-add) is below
/// FLT_MAX and below every earlier cluster's, else 0.  So NaN never wins and
/// ties keep the lower k.  No state carries from one point to the next, so
/// the compiler scores several points per vector.  Throws isp::Error if
/// `centroids` is not 8 × 8 floats or `points` holds fewer than
/// labels.size() points.
void kmeans_assign(std::span<const float> points,
                   std::span<const float> centroids,
                   std::span<std::uint32_t> labels);

/// Dense ids in first-seen order over the key domain [0, domain): the first
/// distinct key gets id 0, the next new one id 1, and so on.  The table is
/// indexed by key directly, one slot per key of the domain (0: unseen,
/// otherwise id + 1).  The CSR builders of pagerank and sparsemv remap their
/// vertex ids through it, with the domain their generator draws from.
class DenseIds {
 public:
  explicit DenseIds(std::uint32_t domain) : slots_(domain, 0) {}

  /// The dense id of `key`, assigning the next one on first sight.  Throws
  /// isp::Error if `key` is at or past the domain.
  std::uint32_t id_of(std::uint32_t key) {
    ISP_CHECK(key < slots_.size(),
              "id " << key << " outside the domain of " << slots_.size());
    auto& slot = slots_[key];
    if (slot == 0) slot = ++count_;
    return slot - 1;
  }

  /// The number of distinct keys seen so far.
  std::uint32_t size() const { return count_; }

 private:
  std::vector<std::uint32_t> slots_;
  std::uint32_t count_ = 0;
};

/// Edge of the square bf16 GEMM tile.
inline constexpr std::size_t kGemmDim = 64;

/// c = a · b for one 64×64 bf16 tile pair, accumulating in float with k
/// running 0..63 for every c[i][j] (no fused multiply-add).
void gemm_tile_bf16(const std::uint16_t* a, const std::uint16_t* b, float* c);

/// The GELU epilogue: out[i] = (0.5 · x) · (1 + tanh(0.7978845608 · (x +
/// ((0.044715 · x) · x) · x))) with x = logits[i] + 0.1, in float, in that
/// operation order, no fused multiply-add, and tanh fdlibm's tanhf bit for
/// bit (glibc's up to 2.40), so no output depends on the C library.  Lanes
/// of four run branch-free; a short last block repeats its last logit in
/// the spare lanes.  Throws isp::Error if the spans differ in size.
void bias_gelu(std::span<const float> logits, std::span<float> out);

}  // namespace isp::apps::detail
