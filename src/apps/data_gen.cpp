#include "apps/data_gen.hpp"

#include <cmath>

#include "common/error.hpp"

namespace isp::apps {

void fill_lineitem(mem::Buffer& buffer, std::size_t rows,
                   std::uint32_t part_keys, Rng rng) {
  ISP_CHECK(part_keys > 0, "need at least one part key");
  buffer.resize_elems<LineitemRow>(rows);
  auto out = buffer.as<LineitemRow>();
  static constexpr char kFlags[] = {'A', 'N', 'R'};
  static constexpr char kStatus[] = {'O', 'F'};
  for (auto& row : out) {
    row.quantity = 1.0 + std::floor(rng.uniform(0.0, 50.0));
    row.extended_price = rng.uniform(900.0, 105000.0);
    row.discount = std::floor(rng.uniform(0.0, 11.0)) / 100.0;  // 0.00..0.10
    row.tax = std::floor(rng.uniform(0.0, 9.0)) / 100.0;
    row.ship_date = static_cast<std::int32_t>(rng.uniform_u64(0, 2554));
    row.part_key = static_cast<std::int32_t>(rng.uniform_u64(0, part_keys - 1));
    row.return_flag = kFlags[rng.uniform_u64(0, 2)];
    row.line_status = kStatus[rng.uniform_u64(0, 1)];
    for (char& c : row.pad) c = 0;
  }
}

void fill_part(mem::Buffer& buffer, std::size_t rows, Rng rng) {
  buffer.resize_elems<PartRow>(rows);
  auto out = buffer.as<PartRow>();
  std::int32_t key = 0;
  for (auto& row : out) {
    row.part_key = key++;
    // TPC-H p_type has 150 variants, 30 of which are PROMO.
    row.is_promo = (rng.uniform_u64(0, 149) < 30) ? 1 : 0;
  }
}

void fill_options(mem::Buffer& buffer, std::size_t rows, Rng rng) {
  buffer.resize_elems<OptionRecord>(rows);
  auto out = buffer.as<OptionRecord>();
  for (auto& row : out) {
    row.spot = rng.uniform(10.0, 200.0);
    row.strike = rng.uniform(10.0, 200.0);
    row.rate = rng.uniform(0.005, 0.08);
    row.volatility = rng.uniform(0.05, 0.9);
    row.expiry = rng.uniform(0.05, 3.0);
    row.is_call = rng.uniform_u64(0, 1) == 1 ? 1 : 0;
    row.pad = 0;
  }
}

void fill_floats(mem::Buffer& buffer, std::size_t count, Rng rng) {
  buffer.resize_elems<float>(count);
  for (auto& v : buffer.as<float>()) {
    v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
}

void fill_doubles(mem::Buffer& buffer, std::size_t count, Rng rng) {
  buffer.resize_elems<double>(count);
  for (auto& v : buffer.as<double>()) v = rng.uniform(-1.0, 1.0);
}

void fill_edges_zipf(mem::Buffer& buffer, std::size_t edges,
                     std::uint32_t vertices, double skew, Rng rng) {
  ISP_CHECK(vertices > 1, "graph needs at least two vertices");
  buffer.resize_elems<EdgeRecord>(edges);
  auto out = buffer.as<EdgeRecord>();
  const ZipfDraw vertex(vertices, skew);
  for (auto& e : out) {
    e.src = vertex(rng);
    e.dst = vertex(rng);
    if (e.src == e.dst) e.dst = (e.dst + 1) % vertices;
  }
}

void fill_forest(mem::Buffer& buffer, std::size_t trees, std::uint32_t depth,
                 std::uint32_t features, Rng rng) {
  ISP_CHECK(depth >= 1 && depth < 24, "unreasonable tree depth");
  const std::size_t nodes_per_tree = (std::size_t{1} << depth) - 1;
  buffer.resize_elems<TreeNode>(trees * nodes_per_tree);
  auto out = buffer.as<TreeNode>();
  const std::size_t internal = (std::size_t{1} << (depth - 1)) - 1;
  for (std::size_t t = 0; t < trees; ++t) {
    for (std::size_t n = 0; n < nodes_per_tree; ++n) {
      auto& node = out[t * nodes_per_tree + n];
      if (n < internal) {
        node.feature = static_cast<std::int32_t>(
            rng.uniform_u64(0, features - 1));
        node.threshold = static_cast<float>(rng.uniform(-0.8, 0.8));
      } else {
        node.feature = -1;
        node.threshold = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
    }
  }
}

}  // namespace isp::apps
