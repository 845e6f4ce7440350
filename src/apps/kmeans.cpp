// KMeans: Lloyd's algorithm over 8-dimensional points (Table I: 5.3 GB).
//
// The longest-running baseline of the evaluation (~73 s).  Six
// assign-and-update iterations appear as six separate lines — each is a
// single-entry-single-exit region in the interpreted program — followed by a
// final labelling pass whose output (one label per point) is the only
// sizeable product.  Every pass labels points through detail::kmeans_assign,
// a loop with no state from one point to the next that the compiler runs
// over several points per vector; assign_update labels a block of points,
// then adds them to the cluster sums in point order.
#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <string>

#include "apps/data_gen.hpp"
#include "apps/detail.hpp"

namespace isp::apps {

namespace {

constexpr std::uint32_t kDims = detail::kKmeansDims;
constexpr std::uint32_t kClusters = detail::kKmeansClusters;
constexpr std::uint32_t kIterations = 6;
/// On-disk points are double precision (the feed's native format)...
constexpr std::size_t kFilePointBytes = kDims * sizeof(double);
/// ...and are normalised into single precision for clustering.
constexpr std::size_t kPointBytes = kDims * sizeof(float);
/// Points labelled per pass of assign_update before their sums are added.
constexpr std::size_t kAssignBlock = 256;

struct Centroids {
  std::array<float, kClusters * kDims> mean;
};

}  // namespace

namespace detail {

void kmeans_assign(std::span<const float> points,
                   std::span<const float> centroids,
                   std::span<std::uint32_t> labels) {
  ISP_CHECK(centroids.size() == kClusters * kDims,
            "centroid table has " << centroids.size() << " floats, expected "
                                  << kClusters * kDims);
  ISP_CHECK(points.size() / kDims >= labels.size(),
            labels.size() << " labels need " << labels.size() * kDims
                          << " coordinates, got " << points.size());
  // A local copy, so the compiler sees that no label store can change the
  // table and vectorises the loop below across points.
  std::array<float, kClusters * kDims> c;
  std::copy(centroids.begin(), centroids.end(), c.begin());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const float* point = points.data() + i * kDims;
    std::uint32_t best = 0;
    float best_d = std::numeric_limits<float>::max();
    for (std::uint32_t k = 0; k < kClusters; ++k) {
      float d = 0.0F;
      for (std::uint32_t j = 0; j < kDims; ++j) {
        const float diff = point[j] - c[k * kDims + j];
        d += diff * diff;
      }
      if (d < best_d) {
        best_d = d;
        best = k;
      }
    }
    labels[i] = best;
  }
}

}  // namespace detail

ir::Program make_kmeans(const AppConfig& config) {
  ir::Program program("kmeans", config.virtual_scale);

  const Bytes size = detail::table_bytes(5.3, config);
  const std::size_t points = detail::phys_elems(size, config, kFilePointBytes);
  program.add_dataset(storage_dataset(
      "points_file", size, points * kFilePointBytes,
      static_cast<std::uint32_t>(kFilePointBytes), [&](mem::Buffer& b) {
        fill_doubles(b, points * kDims, Rng{config.seed}.fork(0x4d3a));
      }));

  {
    ir::CodeRegion line;
    line.name = "points = load_normalize(points_file)";
    line.inputs = {"points_file"};
    line.outputs = {"points"};
    line.elem_bytes = kFilePointBytes;
    line.cost.cycles_per_elem = 128.0;  // 2 cycles/byte convert+scale
    line.host_threads = 1;
    line.csd_threads = 6;
    line.chunks = 64;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto in = ctx.input(0).physical.as<double>();
      auto& out = ctx.output(0);
      out.physical.resize_elems<float>(in.size());
      auto dst = out.physical.as<float>();
      for (std::size_t i = 0; i < in.size(); ++i) {
        dst[i] = static_cast<float>(in[i]) * 0.5F;  // into [-0.5, 0.5)
      }
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "centroids0 = init_from(points)";
    line.inputs = {"points"};
    line.outputs = {"centroids0"};
    line.elem_bytes = kPointBytes;
    line.cost.base_cycles = 20000.0;
    line.cost.cycles_per_elem = 0.0;
    line.host_threads = 1;
    line.csd_threads = 1;
    line.chunks = 1;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto pts = ctx.input(0).physical.as<float>();
      auto& out = ctx.output(0);
      out.physical.resize_elems<Centroids>(1);
      auto& c = out.physical.as<Centroids>()[0];
      for (std::uint32_t k = 0; k < kClusters; ++k) {
        for (std::uint32_t j = 0; j < kDims; ++j) {
          const std::size_t idx = static_cast<std::size_t>(k) * kDims + j;
          c.mean[k * kDims + j] = idx < pts.size() ? pts[idx] : 0.0F;
        }
      }
    };
    program.add_line(std::move(line));
  }

  for (std::uint32_t it = 0; it < kIterations; ++it) {
    ir::CodeRegion line;
    line.name = "centroids" + std::to_string(it + 1) +
                " = assign_update(points, centroids" + std::to_string(it) +
                ")";
    line.inputs = {"points", "centroids" + std::to_string(it)};
    line.outputs = {"centroids" + std::to_string(it + 1)};
    line.elem_bytes = kPointBytes;
    line.cost.cycles_per_elem = 440.0;  // k×d distance + accumulate
    line.host_threads = 1;
    line.csd_threads = 7;
    line.chunks = 128;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto pts = ctx.input(0).physical.as<float>();
      const auto& c_in = ctx.input(1).physical.as<Centroids>()[0];
      std::array<double, kClusters * kDims> sums{};
      std::array<double, kClusters> counts{};
      const std::size_t n = pts.size() / kDims;
      // Label a block of points first, then add them in point order: the
      // labelling loop then runs several points per vector, while the sums
      // keep the order of a one-point-at-a-time loop.
      std::array<std::uint32_t, kAssignBlock> labels;
      for (std::size_t i0 = 0; i0 < n; i0 += kAssignBlock) {
        const std::size_t count = std::min(kAssignBlock, n - i0);
        detail::kmeans_assign(pts.subspan(i0 * kDims, count * kDims),
                              c_in.mean, std::span(labels).first(count));
        for (std::size_t b = 0; b < count; ++b) {
          const float* p = pts.data() + (i0 + b) * kDims;
          const std::uint32_t k = labels[b];
          counts[k] += 1.0;
          for (std::uint32_t j = 0; j < kDims; ++j) {
            sums[k * kDims + j] += p[j];
          }
        }
      }
      auto& out = ctx.output(0);
      out.physical.resize_elems<Centroids>(1);
      auto& c_out = out.physical.as<Centroids>()[0];
      for (std::uint32_t k = 0; k < kClusters; ++k) {
        for (std::uint32_t j = 0; j < kDims; ++j) {
          c_out.mean[k * kDims + j] =
              counts[k] > 0.0
                  ? static_cast<float>(sums[k * kDims + j] / counts[k])
                  : c_in.mean[k * kDims + j];
        }
      }
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "labels = assign(points, centroids" +
                std::to_string(kIterations) + ")";
    line.inputs = {"points", "centroids" + std::to_string(kIterations)};
    line.outputs = {"labels"};
    line.elem_bytes = kPointBytes;
    line.cost.cycles_per_elem = 400.0;
    line.host_threads = 1;
    line.csd_threads = 7;
    line.chunks = 64;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto pts = ctx.input(0).physical.as<float>();
      const auto& c = ctx.input(1).physical.as<Centroids>()[0];
      const std::size_t n = pts.size() / kDims;
      auto& out = ctx.output(0);
      out.physical.resize_elems<std::uint32_t>(n);
      detail::kmeans_assign(pts, c.mean, out.physical.as<std::uint32_t>());
    };
    program.add_line(std::move(line));
  }

  return program;
}

}  // namespace isp::apps
