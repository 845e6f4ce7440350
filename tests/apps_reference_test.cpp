// Cross-checks of the workload kernels against independent, straight-line
// reference implementations computed directly from the generated datasets.
// (apps_test.cpp checks structural sanity; this file checks the numbers.)
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "apps/data_gen.hpp"
#include "apps/detail.hpp"
#include "apps/registry.hpp"
#include "apps/tanh_lanes.hpp"
#include "profile/sampler.hpp"
#include "runtime/engine.hpp"

namespace isp::apps {
namespace {

AppConfig tiny() {
  AppConfig config;
  config.size_factor = 0.03;
  config.seed = 99;
  return config;
}

ir::ObjectStore run_host(const ir::Program& program) {
  system::SystemModel system;
  runtime::EngineOptions options;
  options.monitoring = false;
  options.migration = false;
  auto store = program.make_store();
  runtime::run_program(system, program,
                       ir::Plan::host_only(program.line_count()),
                       codegen::ExecMode::NativeC, options, &store);
  return store;
}

TEST(ReferenceQ1, AggregatesMatchDirectScan) {
  const auto program = make_tpch_q1(tiny());
  auto store = run_host(program);

  // Independent aggregation straight off the generated table.
  auto reference = program.make_store();
  const auto rows = reference.at("lineitem").physical.as<LineitemRow>();
  std::array<double, 6> sum_qty{};
  std::array<double, 6> count{};
  auto group_of = [](const LineitemRow& r) {
    const std::size_t f =
        r.return_flag == 'A' ? 0 : (r.return_flag == 'N' ? 1 : 2);
    return f * 2 + (r.line_status == 'O' ? 0 : 1);
  };
  for (const auto& r : rows) {
    if (r.ship_date > 2445) continue;
    const auto g = group_of(r);
    sum_qty[g] += r.quantity;
    count[g] += 1.0;
  }

  const auto report = store.at("q1_report").physical.as<double>();
  for (std::size_t g = 0; g < 6; ++g) {
    if (count[g] == 0.0) continue;
    EXPECT_NEAR(report[g * 3 + 0], sum_qty[g] / count[g], 1e-9)
        << "group " << g;
  }
}

TEST(ReferenceQ14, PromoRatioMatchesDirectJoin) {
  const auto program = make_tpch_q14(tiny());
  auto store = run_host(program);

  auto reference = program.make_store();
  const auto rows = reference.at("lineitem").physical.as<LineitemRow>();
  const auto parts = reference.at("part").physical.as<PartRow>();
  std::vector<bool> promo(parts.size(), false);
  for (const auto& p : parts) {
    promo[static_cast<std::size_t>(p.part_key)] = p.is_promo != 0;
  }
  double promo_rev = 0.0;
  double total_rev = 0.0;
  for (const auto& r : rows) {
    if (r.ship_date < 2160 || r.ship_date >= 2190) continue;
    const double revenue = r.extended_price * (1.0 - r.discount);
    total_rev += revenue;
    if (promo[static_cast<std::size_t>(r.part_key)]) promo_rev += revenue;
  }
  const auto result = store.at("q14_result").physical.as<double>();
  ASSERT_GT(total_rev, 0.0);
  EXPECT_NEAR(result[0], 100.0 * promo_rev / total_rev, 1e-9);
  EXPECT_NEAR(result[1], promo_rev, 1e-6);
  EXPECT_NEAR(result[2], total_rev, 1e-6);
}

TEST(ReferenceBlackscholes, PutCallParityHolds) {
  const auto program = make_blackscholes(tiny());
  auto store = run_host(program);
  auto reference = program.make_store();
  const auto records = reference.at("options_file").physical.as<OptionRecord>();
  const auto prices = store.at("prices").physical.as<float>();
  ASSERT_EQ(prices.size(), records.size());

  // Spot-check Black–Scholes bounds on a sample of rows: a call is worth at
  // least its discounted intrinsic value and no more than the spot.
  for (std::size_t i = 0; i < records.size(); i += 97) {
    const auto& r = records[i];
    const double discounted_strike = r.strike * std::exp(-r.rate * r.expiry);
    if (r.is_call != 0) {
      EXPECT_GE(prices[i], std::max(0.0, r.spot - discounted_strike) - 0.05)
          << "call " << i;
      EXPECT_LE(prices[i], r.spot + 0.05) << "call " << i;
    } else {
      EXPECT_GE(prices[i], std::max(0.0, discounted_strike - r.spot) - 0.05)
          << "put " << i;
      EXPECT_LE(prices[i], discounted_strike + 0.05) << "put " << i;
    }
  }
}

// ---- Kernel oracles ---------------------------------------------------------
//
// The plain loops the optimised kernels replaced.  Production keeps only the
// fast forms (apps/detail.hpp); these survive here as the reference every
// output bit is checked against.

constexpr std::size_t kNodesPerTree = 63;  // depth 6

/// One row through the forest, one tree at a time, branching per node.
float score_row_scalar(const float* row, std::span<const TreeNode> forest) {
  float margin = 0.0F;
  for (std::size_t t = 0; t < detail::kForestTrees; ++t) {
    const TreeNode* tree = forest.data() + t * kNodesPerTree;
    std::size_t node = 0;
    while (tree[node].feature >= 0) {
      const float v = row[tree[node].feature];
      node = 2 * node + (v <= tree[node].threshold ? 1 : 2);
    }
    margin += tree[node].threshold;  // leaf value
  }
  return margin;
}

float from_bf16(std::uint16_t v) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(v) << 16);
}

/// One 64x64 tile, converting B on every use and accumulating in c.
void gemm_tile_naive(const std::uint16_t* a, const std::uint16_t* b,
                     float* c) {
  constexpr std::size_t kDim = detail::kGemmDim;
  for (std::size_t i = 0; i < kDim; ++i) {
    for (std::size_t j = 0; j < kDim; ++j) c[i * kDim + j] = 0.0F;
    for (std::size_t k = 0; k < kDim; ++k) {
      const float aik = from_bf16(a[i * kDim + k]);
      for (std::size_t j = 0; j < kDim; ++j) {
        c[i * kDim + j] += aik * from_bf16(b[k * kDim + j]);
      }
    }
  }
}

bool same_bits(std::span<const float> x, std::span<const float> y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
}

TEST(ReferenceLightgbm, MarginsMatchManualTraversal) {
  const auto program = make_lightgbm(tiny());
  auto store = run_host(program);
  auto reference = program.make_store();

  const auto raw = reference.at("features_file").physical.as<double>();
  const auto forest = reference.at("model").physical.as<TreeNode>();
  const auto margins = store.at("margins").physical.as<float>();
  constexpr std::size_t kFeatures = detail::kForestFeatures;
  ASSERT_EQ(margins.size(), raw.size() / kFeatures);

  // Every row, bit for bit: the blocked walk adds each row's leaves in the
  // same tree order as this one-row-at-a-time reference.
  std::array<float, kFeatures> features{};
  for (std::size_t row = 0; row < margins.size(); ++row) {
    for (std::size_t j = 0; j < kFeatures; ++j) {
      features[j] = static_cast<float>(raw[row * kFeatures + j]);
    }
    const float margin = score_row_scalar(features.data(), forest);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(margins[row]),
              std::bit_cast<std::uint32_t>(margin))
        << "row " << row << ": " << margins[row] << " vs " << margin;
  }
}

/// A forest of depth-6 trees whose leaves sit at mixed depths: each node
/// above the leaf level is a leaf with probability `leaf_p`.  Nodes below a
/// leaf are unreachable filler (valid, so the model still checks out).
/// Leaf markers vary (any negative feature is a leaf), thresholds include
/// infinities, and leaf values span many magnitudes so any change in the
/// order of a row's additions would show in the low bits.
std::vector<TreeNode> irregular_forest(Rng rng, double leaf_p) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<TreeNode> forest(detail::kForestTrees * kNodesPerTree);
  for (std::size_t t = 0; t < detail::kForestTrees; ++t) {
    TreeNode* tree = forest.data() + t * kNodesPerTree;
    for (std::size_t n = 0; n < kNodesPerTree; ++n) {
      const bool leaf_level = 2 * n + 2 >= kNodesPerTree;
      if (leaf_level || rng.next_double() < leaf_p) {
        const auto marker = -static_cast<std::int32_t>(rng.uniform_u64(1, 3));
        const int exponent = static_cast<int>(rng.uniform_u64(0, 40)) - 20;
        const double value = std::ldexp(rng.uniform(-1.0, 1.0), exponent);
        tree[n] = TreeNode{marker, static_cast<float>(value)};
      } else {
        const auto feature = static_cast<std::int32_t>(
            rng.uniform_u64(0, detail::kForestFeatures - 1));
        float threshold = static_cast<float>(rng.uniform(-0.8, 0.8));
        const auto pick = rng.uniform_u64(0, 19);
        if (pick < 2) threshold = pick == 0 ? kInf : -kInf;
        tree[n] = TreeNode{feature, threshold};
      }
    }
  }
  return forest;
}

/// Feature rows with NaN, +inf, -inf and exact threshold ties mixed in.
std::vector<float> feature_rows(Rng rng, std::size_t rows,
                                std::span<const TreeNode> forest) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> x(rows * detail::kForestFeatures);
  for (auto& v : x) {
    switch (rng.uniform_u64(0, 11)) {
      case 0: v = std::numeric_limits<float>::quiet_NaN(); break;
      case 1: v = kInf; break;
      case 2: v = -kInf; break;
      case 3:  // lands exactly on some split threshold
        v = forest[rng.uniform_u64(0, forest.size() - 1)].threshold;
        break;
      default: v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  return x;
}

TEST(ForestKernel, BlockedWalkMatchesScalarOracleBitForBit) {
  Rng rng{0xf02e57};
  for (const double leaf_p : {0.0, 0.2, 0.6}) {
    const auto forest = irregular_forest(rng.fork(1), leaf_p);
    // 0..17 rows: empty, partial first block, full blocks, and a partial
    // last block after one or two full ones.
    for (std::size_t rows = 0; rows <= 17; ++rows) {
      const auto x = feature_rows(rng.fork(100 + rows), rows, forest);
      std::vector<float> expected(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        expected[r] =
            score_row_scalar(x.data() + r * detail::kForestFeatures, forest);
      }
      std::vector<float> got(rows, -1.0F);
      detail::forest_predict(x, forest, got);
      EXPECT_TRUE(same_bits(got, expected))
          << "leaf_p " << leaf_p << ", " << rows << " rows";
    }
    rng = rng.fork(2);
  }
}

TEST(ForestKernel, RejectsMalformedModels) {
  const auto good = irregular_forest(Rng{7}, 0.2);
  const std::vector<float> x(3 * detail::kForestFeatures, 0.5F);
  std::vector<float> margins(3);
  EXPECT_NO_THROW(detail::forest_predict(x, good, margins));

  // Truncated: the last tree would be walked past the end of the buffer.
  const std::span<const TreeNode> truncated(good.data(), good.size() - 1);
  EXPECT_THROW(detail::forest_predict(x, truncated, margins), Error);

  // A split on feature 32 would read the next row.
  auto wide = good;
  wide[5].feature = static_cast<std::int32_t>(detail::kForestFeatures);
  EXPECT_THROW(detail::forest_predict(x, wide, margins), Error);

  // An internal node on the leaf level would send the walk into the next
  // tree (or past the buffer on the last one).
  for (const std::size_t tree : {std::size_t{0}, detail::kForestTrees - 1}) {
    auto deep = good;
    deep[tree * kNodesPerTree + kNodesPerTree - 1].feature = 0;
    EXPECT_THROW(detail::forest_predict(x, deep, margins), Error) << tree;
  }

  // Fewer feature rows than margins.
  std::vector<float> too_many(4);
  EXPECT_THROW(detail::forest_predict(x, good, too_many), Error);
}

TEST(ForestKernel, MalformedModelFailsTheLightgbmRun) {
  const auto program = make_lightgbm(tiny());
  for (const bool truncate : {true, false}) {
    auto store = program.make_store();
    auto& model = store.at("model").physical;
    if (truncate) {
      model.resize_elems<TreeNode>(model.size_as<TreeNode>() - 1);
    } else {
      model.as<TreeNode>()[0].feature = 40;
    }
    system::SystemModel system;
    runtime::EngineOptions options;
    options.monitoring = false;
    options.migration = false;
    EXPECT_THROW(runtime::run_program(
                     system, program,
                     ir::Plan::host_only(program.line_count()),
                     codegen::ExecMode::NativeC, options, &store),
                 Error)
        << (truncate ? "truncated" : "feature 40");
  }
}

TEST(GemmKernel, RegisterBlockedMatchesNaiveBitForBit) {
  constexpr std::size_t kTile = detail::kGemmDim * detail::kGemmDim;
  // Every NaN in play carries the platform's default NaN bits (the one
  // inf * 0 produces), so the result cannot depend on which NaN operand an
  // instruction propagates.
  volatile float zero = 0.0F;
  const auto nan_bits = static_cast<std::uint16_t>(
      std::bit_cast<std::uint32_t>(std::numeric_limits<float>::infinity() *
                                   zero) >>
      16);
  Rng rng{0x6e33};
  for (int round = 0; round < 12; ++round) {
    // Later rounds make special values common enough to meet in one dot
    // product (inf * 0, inf - inf); early rounds keep most sums finite.
    const std::uint64_t special_per_64 = round < 4 ? 1 : 8;
    std::vector<std::uint16_t> a(kTile), b(kTile);
    for (auto* tile : {&a, &b}) {
      for (auto& v : *tile) {
        const auto sign = static_cast<std::uint16_t>(
            rng.uniform_u64(0, 1) << 15);
        if (rng.uniform_u64(0, 63) >= special_per_64) {
          // A normal value around 1, so products and sums round.
          v = static_cast<std::uint16_t>(
              sign | rng.uniform_u64(0x3e00, 0x4080));
          continue;
        }
        switch (rng.uniform_u64(0, 3)) {
          case 0: v = nan_bits; break;
          case 1: v = static_cast<std::uint16_t>(sign | 0x7f80); break;  // inf
          case 2:  // subnormal
            v = static_cast<std::uint16_t>(sign | rng.uniform_u64(1, 0x7f));
            break;
          default: v = sign; break;  // +-0
        }
      }
    }
    std::vector<float> expected(kTile), got(kTile, -1.0F);
    gemm_tile_naive(a.data(), b.data(), expected.data());
    detail::gemm_tile_bf16(a.data(), b.data(), got.data());
    EXPECT_TRUE(same_bits(got, expected)) << "round " << round;
  }
}

/// First-seen dense ids through a hash map: the remap both CSR builders ran
/// before detail::DenseIds.
class HashIds {
 public:
  std::uint32_t id_of(std::uint32_t key) {
    const auto [it, inserted] =
        ids_.try_emplace(key, static_cast<std::uint32_t>(ids_.size()));
    return it->second;
  }
  std::size_t size() const { return ids_.size(); }

 private:
  std::unordered_map<std::uint32_t, std::uint32_t> ids_;
};

TEST(DenseIds, MatchesHashRemapOnZipfStreams) {
  Rng rng{0xd3e5};
  for (const std::uint32_t domain : {2U, 64U, 1000U, 83'000U}) {
    for (const double skew : {0.65, 1.2}) {
      detail::DenseIds dense(domain);
      HashIds hash;
      const ZipfDraw zipf(domain, skew);
      for (int i = 0; i < 20'000; ++i) {
        const auto key = static_cast<std::uint32_t>(zipf(rng));
        ASSERT_EQ(dense.id_of(key), hash.id_of(key))
            << "domain " << domain << " skew " << skew << " key " << key;
      }
      EXPECT_EQ(dense.size(), hash.size()) << domain;
    }
  }
}

TEST(DenseIds, EdgesOfTheDomain) {
  detail::DenseIds one(1);
  EXPECT_EQ(one.id_of(0), 0U);
  EXPECT_EQ(one.id_of(0), 0U);
  EXPECT_EQ(one.size(), 1U);
  EXPECT_THROW(one.id_of(1), Error);

  // The last key first, then the first; then one key many times.
  constexpr std::uint32_t kDomain = 500;
  detail::DenseIds ends(kDomain);
  EXPECT_EQ(ends.id_of(kDomain - 1), 0U);
  EXPECT_EQ(ends.id_of(0), 1U);
  EXPECT_EQ(ends.id_of(kDomain - 1), 0U);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ends.id_of(7), 2U);
  EXPECT_EQ(ends.size(), 3U);
  EXPECT_THROW(ends.id_of(kDomain), Error);
  EXPECT_THROW(ends.id_of(0xFFFFFFFFU), Error);
  EXPECT_EQ(ends.size(), 3U);

  detail::DenseIds empty(0);
  EXPECT_THROW(empty.id_of(0), Error);
  EXPECT_EQ(empty.size(), 0U);
}

/// The CSR both apps lay out, built through HashIds: {vertices, entries} |
/// rowptr u64[V+1] | cols u32[N] | values f32[N] (sparsemv only), zero-padded
/// to 8 bytes.  `rows` and `cols` hold raw ids, remapped row before column.
std::vector<std::byte> oracle_csr(std::span<const std::uint32_t> rows,
                                  std::span<const std::uint32_t> cols,
                                  std::span<const float> values) {
  HashIds ids;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto r = ids.id_of(rows[i]);
    const auto c = ids.id_of(cols[i]);
    entries.emplace_back(r, c);
  }
  const std::uint64_t v = ids.size();
  const std::uint64_t n = entries.size();
  std::vector<std::uint64_t> rowptr(v + 1, 0);
  for (const auto& [r, c] : entries) ++rowptr[r + 1];
  for (std::uint64_t i = 0; i < v; ++i) rowptr[i + 1] += rowptr[i];
  std::vector<std::uint32_t> out_cols(n);
  std::vector<float> out_values(values.empty() ? 0 : n);
  std::vector<std::uint64_t> cursor(rowptr.begin(), rowptr.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto at = cursor[entries[i].first]++;
    out_cols[at] = entries[i].second;
    if (!values.empty()) out_values[at] = values[i];
  }

  std::vector<std::byte> bytes;
  auto append = [&bytes](const void* data, std::size_t size) {
    const auto* b = static_cast<const std::byte*>(data);
    bytes.insert(bytes.end(), b, b + size);
  };
  const std::uint64_t header[2] = {v, n};
  append(header, sizeof header);
  append(rowptr.data(), rowptr.size() * sizeof(std::uint64_t));
  append(out_cols.data(), out_cols.size() * sizeof(std::uint32_t));
  append(out_values.data(), out_values.size() * sizeof(float));
  bytes.resize((bytes.size() + 7) & ~std::size_t{7}, std::byte{0});
  return bytes;
}

bool same_bytes(std::span<const std::byte> x, std::span<const std::byte> y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size()) == 0);
}

/// sparsemv's on-disk and narrowed triplets (the layouts the app defines).
struct TripletRecord {
  std::uint32_t row;
  std::uint32_t col;
  double value;
};
struct Triplet {
  std::uint32_t row;
  std::uint32_t col;
  float value;
};

TEST(CsrKernel, PagerankCsrMatchesHashRemapOracle) {
  for (const double size_factor : {0.003, 0.03}) {
    AppConfig config = tiny();
    config.size_factor = size_factor;
    const auto program = make_pagerank(config);
    auto store = run_host(program);
    const auto edges = store.at("edges").physical.as<Edge>();
    std::vector<std::uint32_t> src, dst;
    for (const auto& e : edges) {
      src.push_back(e.src);
      dst.push_back(e.dst);
    }
    EXPECT_TRUE(same_bytes(store.at("csr").physical.as<std::byte>(),
                           oracle_csr(src, dst, {})))
        << "size_factor " << size_factor;
  }
}

TEST(CsrKernel, SparsemvCsrMatchesHashRemapOracle) {
  for (const double size_factor : {0.003, 0.03}) {
    AppConfig config = tiny();
    config.size_factor = size_factor;
    const auto program = make_sparsemv(config);
    auto store = run_host(program);
    const auto triplets = store.at("triplets").physical.as<Triplet>();
    std::vector<std::uint32_t> rows, cols;
    std::vector<float> values;
    for (const auto& t : triplets) {
      rows.push_back(t.row);
      cols.push_back(t.col);
      values.push_back(t.value);
    }
    ASSERT_FALSE(values.empty());
    EXPECT_TRUE(same_bytes(store.at("csr").physical.as<std::byte>(),
                           oracle_csr(rows, cols, values)))
        << "size_factor " << size_factor;
  }
}

void expect_run_throws(const ir::Program& program, ir::ObjectStore& store,
                       const std::string& what) {
  system::SystemModel system;
  runtime::EngineOptions options;
  options.monitoring = false;
  options.migration = false;
  EXPECT_THROW(runtime::run_program(
                   system, program, ir::Plan::host_only(program.line_count()),
                   codegen::ExecMode::NativeC, options, &store),
               Error)
      << what;
}

TEST(CsrKernel, OutOfDomainIdFailsTheRun) {
  // Each app draws its ids from [0, max(records / 2, 64)); the first id at
  // or past that bound has no slot in the remap table.
  {
    const auto program = make_pagerank(tiny());
    for (const bool dst : {false, true}) {
      auto store = program.make_store();
      auto records = store.at("edges_file").physical.as<EdgeRecord>();
      const std::uint64_t domain =
          std::max<std::uint64_t>(records.size() / 2, 64);
      if (dst) {
        records[records.size() / 2].dst = domain;
      } else {
        records[0].src = domain;
      }
      expect_run_throws(program, store, dst ? "pagerank dst" : "pagerank src");
    }
  }
  {
    const auto program = make_sparsemv(tiny());
    for (const bool col : {false, true}) {
      auto store = program.make_store();
      auto records = store.at("triplets_file").physical.as<TripletRecord>();
      const auto domain = static_cast<std::uint32_t>(
          std::max<std::size_t>(records.size() / 2, 64));
      if (col) {
        records.back().col = 0xFFFFFFFFU;
      } else {
        records[0].row = domain;
      }
      expect_run_throws(program, store, col ? "sparsemv col" : "sparsemv row");
    }
  }
}

constexpr std::uint32_t kKmDims = detail::kKmeansDims;
constexpr std::uint32_t kKmClusters = detail::kKmeansClusters;

/// One point at a time: the first cluster whose distance is strictly below
/// the best so far (which starts at FLT_MAX).
std::uint32_t nearest_scalar(const float* point, const float* centroids) {
  std::uint32_t best = 0;
  float best_d = std::numeric_limits<float>::max();
  for (std::uint32_t k = 0; k < kKmClusters; ++k) {
    float d = 0.0F;
    for (std::uint32_t j = 0; j < kKmDims; ++j) {
      const float diff = point[j] - centroids[k * kKmDims + j];
      d += diff * diff;
    }
    if (d < best_d) {
      best_d = d;
      best = k;
    }
  }
  return best;
}

TEST(KmeansKernel, PickMatchesScalarOracleOnSpecialValues) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kMax = std::numeric_limits<float>::max();
  const float specials[] = {kNan,
                            kInf,
                            -kInf,
                            std::numeric_limits<float>::denorm_min(),
                            -1e-40F,
                            0.0F,
                            -0.0F,
                            kMax,
                            -kMax,
                            1.5e19F};  // its square overflows to inf
  Rng rng{0x4b3e};
  for (int round = 0; round < 40; ++round) {
    // Later rounds make special values common; some rounds copy clusters so
    // that distances tie exactly.
    const std::uint64_t special_per_16 = static_cast<std::uint64_t>(round % 5);
    auto draw = [&] {
      if (rng.uniform_u64(0, 15) < special_per_16) {
        return specials[rng.uniform_u64(0, std::size(specials) - 1)];
      }
      return static_cast<float>(rng.uniform(-1.0, 1.0));
    };
    std::vector<float> centroids(kKmClusters * kKmDims);
    for (auto& v : centroids) v = draw();
    if (round % 2 == 1) {
      for (std::uint32_t k = 1; k < kKmClusters; k += 2) {
        std::copy_n(centroids.begin() + (k - 1) * kKmDims, kKmDims,
                    centroids.begin() + k * kKmDims);
      }
    }
    // 0..40 points: empty, a partial vector, several full ones and a tail;
    // some points sit exactly on a centroid or halfway between two.
    const std::size_t count = static_cast<std::size_t>(round);
    std::vector<float> points(count * kKmDims);
    for (auto& v : points) v = draw();
    for (std::size_t i = 0; i < count; i += 3) {
      const auto k = rng.uniform_u64(0, kKmClusters - 1);
      const auto k2 = rng.uniform_u64(0, kKmClusters - 1);
      for (std::uint32_t j = 0; j < kKmDims; ++j) {
        const float a = centroids[k * kKmDims + j];
        const float b = centroids[k2 * kKmDims + j];
        points[i * kKmDims + j] = i % 2 == 0 ? a : (a + b) * 0.5F;
      }
    }
    std::vector<std::uint32_t> expected(count);
    for (std::size_t i = 0; i < count; ++i) {
      expected[i] = nearest_scalar(points.data() + i * kKmDims,
                                   centroids.data());
    }
    std::vector<std::uint32_t> got(count, 99);
    detail::kmeans_assign(points, centroids, got);
    EXPECT_EQ(got, expected) << "round " << round;
  }
}

TEST(KmeansKernel, NoDistanceBelowFltMaxPicksClusterZero) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kMax = std::numeric_limits<float>::max();
  // Cluster 1 sits at the origin; every other cluster is so far away that
  // its distance overflows to inf.
  std::vector<float> centroids(kKmClusters * kKmDims, 1e30F);
  std::fill_n(centroids.begin() + kKmDims, kKmDims, 0.0F);
  // 4095² + 90² + 9² + 3² = 2^24 - 1, so this point's distance to the
  // origin is exactly FLT_MAX = (2^24 - 1) · 2^104, every partial sum exact.
  const float u = std::ldexp(1.0F, 52);
  std::vector<float> points = {4095 * u, 90 * u, 9 * u, 3 * u, 0, 0, 0, 0};
  float d = 0.0F;
  for (std::uint32_t j = 0; j < kKmDims; ++j) d += points[j] * points[j];
  ASSERT_EQ(d, kMax);
  // Then a NaN point and one whose distance to the origin overflows.
  points.insert(points.end(), kKmDims, kNan);
  points.insert(points.end(), kKmDims, 1e30F);
  points[2 * kKmDims + 7] = 0.0F;  // not on the far clusters either
  std::vector<std::uint32_t> labels(3, 99);
  detail::kmeans_assign(points, centroids, labels);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], 0U) << "point " << i;
    EXPECT_EQ(nearest_scalar(points.data() + i * kKmDims, centroids.data()),
              0U)
        << "point " << i;
  }
}

TEST(KmeansKernel, RejectsMismatchedSizes) {
  const std::vector<float> centroids(kKmClusters * kKmDims, 0.0F);
  const std::vector<float> points(3 * kKmDims, 0.5F);
  std::vector<std::uint32_t> labels(3);
  EXPECT_NO_THROW(detail::kmeans_assign(points, centroids, labels));
  const std::span<const float> short_table(centroids.data(),
                                           centroids.size() - 1);
  EXPECT_THROW(detail::kmeans_assign(points, short_table, labels), Error);
  std::vector<std::uint32_t> too_many(4);
  EXPECT_THROW(detail::kmeans_assign(points, centroids, too_many), Error);
}

// ---- GELU epilogue -------------------------------------------------------
//
// The oracle is fdlibm's expm1f and tanhf, as glibc ships them up to 2.40,
// transcribed branch for branch (errno and exception flags left out), and
// mixedgemm's scalar GELU over it.  detail::tanh_lanes and detail::bias_gelu
// must match it bit for bit.

std::uint32_t bits_of(float v) { return std::bit_cast<std::uint32_t>(v); }
float float_of(std::uint32_t w) { return std::bit_cast<float>(w); }

float expm1f_oracle(float x) {
  constexpr float kOne = 1.0F;
  constexpr float kHuge = 1.0e+30F;
  constexpr float kTiny = 1.0e-30F;
  constexpr float kOThreshold = 8.8721679688e+01F;
  constexpr float kLn2Hi = 6.9313812256e-01F;
  constexpr float kLn2Lo = 9.0580006145e-06F;
  constexpr float kInvLn2 = 1.4426950216e+00F;
  constexpr float kQ1 = -3.3333335072e-02F;
  constexpr float kQ2 = 1.5873016091e-03F;
  constexpr float kQ3 = -7.9365076090e-05F;
  constexpr float kQ4 = 4.0082177293e-06F;
  constexpr float kQ5 = -2.0109921195e-07F;
  const std::uint32_t xsb = bits_of(x) & 0x80000000U;
  const std::uint32_t hx = bits_of(x) & 0x7fffffffU;
  // Huge and non-finite arguments.
  if (hx >= 0x4195b844U) {  // |x| >= 27 ln2
    if (hx >= 0x42b17218U) {
      if (hx > 0x7f800000U) return x + x;  // NaN
      if (hx == 0x7f800000U) return xsb == 0 ? x : -1.0F;
      if (x > kOThreshold) return kHuge * kHuge;  // overflow
    }
    if (xsb != 0) return kTiny - kOne;
  }
  // Argument reduction: x = k ln2 + (hi - lo), c the rounding error.
  float c = 0.0F;
  std::int32_t k = 0;
  if (hx > 0x3eb17218U) {  // |x| > ln2 / 2
    float hi = 0.0F;
    float lo = 0.0F;
    if (hx < 0x3f851592U) {  // and |x| < 3 ln2 / 2
      if (xsb == 0) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (xsb == 0 ? 0.5F : -0.5F));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000U) {  // |x| < 2^-25
    const float t = kHuge + x;
    return x - (t - kHuge);
  }
  // x is now in the primary range.
  const float hfx = 0.5F * x;
  const float hxs = x * hfx;
  const float r1 =
      kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0F - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0F - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5F * (x - e) - 0.5F;
  if (k == 1) {
    if (x < -0.25F) return -2.0F * (e - (x + 0.5F));
    return kOne + 2.0F * (x - e);
  }
  const std::uint32_t scale = static_cast<std::uint32_t>(k) << 23;
  if (k <= -2 || k > 56) {  // exp(x) - 1 suffices
    float y = kOne - (e - x);
    if (k == 128) {
      y = y * 2.0F * 0x1p127F;
    } else {
      y = float_of(bits_of(y) + scale);
    }
    return y - kOne;
  }
  float y = 0.0F;
  if (k < 23) {
    t = float_of(0x3f800000U - (0x1000000U >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = float_of(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += kOne;
  }
  return float_of(bits_of(y) + scale);
}

float tanhf_oracle(float x) {
  constexpr float kOne = 1.0F;
  constexpr float kTwo = 2.0F;
  constexpr float kTiny = 1.0e-30F;
  const bool negative = (bits_of(x) & 0x80000000U) != 0;
  const std::uint32_t ix = bits_of(x) & 0x7fffffffU;
  if (ix >= 0x7f800000U) {  // tanh(±inf) = ±1, tanh(NaN) = NaN
    return negative ? kOne / x - kOne : kOne / x + kOne;
  }
  float z = 0.0F;
  if (ix < 0x41b00000U) {            // |x| < 22
    if (ix == 0) return x;           // ±0
    if (ix < 0x24000000U) return x * (kOne + x);  // |x| < 2^-55
    if (ix >= 0x3f800000U) {         // |x| >= 1
      const float t = expm1f_oracle(kTwo * std::fabs(x));
      z = kOne - kTwo / (t + kTwo);
    } else {
      const float t = expm1f_oracle(-kTwo * std::fabs(x));
      z = -t / (t + kTwo);
    }
  } else {  // |x| >= 22: ±1
    z = kOne - kTiny;
  }
  return negative ? -z : z;
}

float bias_gelu_oracle(float logit) {
  const float x = logit + 0.1F;
  return 0.5F * x *
         (1.0F + tanhf_oracle(0.7978845608F * (x + 0.044715F * x * x * x)));
}

/// Tanh arguments on fdlibm's branch points, both signs: ±0, subnormals,
/// infinities, NaNs with payloads (quiet and signalling), and each
/// threshold word with its neighbours one ulp away.  The thresholds are
/// tanhf's on |a| (2^-55, 1, 22), the lanes' saturation point 9.1, and
/// expm1f's on its argument (ln2 / 2, 3 ln2 / 2, 27 ln2, 2^-25), both as
/// they stand and halved, since tanhf passes expm1f 2|a|.
std::vector<float> special_args() {
  std::vector<std::uint32_t> words = {0x00000000U, 0x00000001U, 0x00400000U,
                                      0x007fffffU, 0x7f800000U, 0x7fc00000U,
                                      0x7fc12345U, 0x7f800001U, 0x7fa5a5a5U};
  auto around = [&](std::uint32_t w) {
    for (const std::uint32_t d : {w - 1, w, w + 1}) words.push_back(d);
  };
  for (const std::uint32_t w :
       {0x24000000U, 0x3f800000U, 0x41b00000U, bits_of(9.1F)}) {
    around(w);
  }
  for (const std::uint32_t w :
       {0x3eb17218U, 0x3f851592U, 0x4195b844U, 0x33000000U}) {
    around(w);
    around(w - 0x00800000U);  // half: exponent one lower
  }
  std::vector<float> args;
  for (const std::uint32_t w : words) {
    args.push_back(float_of(w));
    args.push_back(float_of(w | 0x80000000U));
  }
  return args;
}

/// Calls `check` on every `stride`-th float bit pattern from `first` up to
/// `last`, in chunks of up to 2^16 (a multiple of four lanes).
template <class Check>
void sweep(std::uint64_t first, std::uint64_t last, std::uint64_t stride,
           Check check) {
  std::vector<float> chunk;
  for (std::uint64_t w = first; w < last; w += stride) {
    chunk.push_back(float_of(static_cast<std::uint32_t>(w)));
    if (chunk.size() == std::size_t{1} << 16) {
      check(chunk);
      chunk.clear();
    }
  }
  if (!chunk.empty()) check(chunk);
}

/// Reports (the first five of) the values whose bits differ and counts them.
void expect_same_bits(float input, float got, float want, const char* what,
                      std::size_t& bad) {
  if (bits_of(got) == bits_of(want)) return;
  if (++bad <= 5) {
    ADD_FAILURE() << what << "(0x" << std::hex << bits_of(input) << ") = 0x"
                  << bits_of(got) << ", oracle 0x" << bits_of(want);
  }
}

/// detail::tanh_lanes on `args`, four at a time (a short last block
/// repeats its last argument), against the oracle.
void check_tanh_lanes(std::span<const float> args, std::size_t& bad) {
  for (std::size_t i = 0; i < args.size(); i += detail::kLanes) {
    detail::F4 v{};
    for (std::size_t l = 0; l < detail::kLanes; ++l) {
      v[l] = args[std::min(i + l, args.size() - 1)];
    }
    const detail::F4 got = detail::tanh_lanes(v);
    for (std::size_t l = 0; l < detail::kLanes && i + l < args.size(); ++l) {
      expect_same_bits(args[i + l], got[l], tanhf_oracle(args[i + l]),
                       "tanh_lanes", bad);
    }
  }
}

void check_bias_gelu(std::span<const float> logits, std::size_t& bad) {
  std::vector<float> out(logits.size());
  detail::bias_gelu(logits, out);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    expect_same_bits(logits[i], out[i], bias_gelu_oracle(logits[i]),
                     "bias_gelu", bad);
  }
}

constexpr std::uint64_t kAllFloats = std::uint64_t{1} << 32;

TEST(GeluKernel, LanesMatchScalarOracle) {
  std::size_t bad = 0;
  // The tanh lanes: the branch points, a strided sweep of every float, and
  // a denser one over 2^-27 <= |a| < 10, where every path but the tiny and
  // saturated ones runs.
  const auto specials = special_args();
  check_tanh_lanes(specials, bad);
  auto tanh = [&](std::span<const float> args) { check_tanh_lanes(args, bad); };
  sweep(0, kAllFloats, 4099, tanh);
  for (const std::uint64_t sign : {0U, 0x80000000U}) {
    sweep(sign + 0x32000000U, sign + 0x41200000U, 127, tanh);
  }
  // The whole epilogue: the same arguments as logits, logits whose x =
  // logit + 0.1 lands at or next to 0, and the same two sweeps with
  // |logit| < 5 in place of |a| < 10.
  check_bias_gelu(specials, bad);
  const std::uint32_t minus_tenth = bits_of(-0.1F);
  std::vector<float> near_tenth;
  for (std::uint32_t w = minus_tenth - 64; w <= minus_tenth + 64; ++w) {
    near_tenth.push_back(float_of(w));
  }
  check_bias_gelu(near_tenth, bad);
  auto gelu = [&](std::span<const float> logits) {
    check_bias_gelu(logits, bad);
  };
  sweep(0, kAllFloats, 4099, gelu);
  for (const std::uint64_t sign : {0U, 0x80000000U}) {
    sweep(sign, sign + bits_of(5.0F), 509, gelu);
  }
  EXPECT_EQ(bad, 0U);

  // Every tail length, each output in place and nothing written past it.
  constexpr float kGuard = 12345.0F;
  const std::vector<float> varied = {-3.5F, 2.25F, -0.1F, 0.7F,
                                     -1.3F, 9.0F,  -0.6F};
  for (std::size_t n = 0; n < 8; ++n) {
    const std::vector<float> logits(varied.begin(), varied.begin() + n);
    std::vector<float> out(n + detail::kLanes, kGuard);
    detail::bias_gelu(logits, std::span<float>(out).first(n));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits_of(out[i]), bits_of(bias_gelu_oracle(logits[i])))
          << "tail " << n << " element " << i;
    }
    for (std::size_t i = n; i < out.size(); ++i) {
      EXPECT_EQ(out[i], kGuard) << "tail " << n << " wrote element " << i;
    }
  }
  std::vector<float> short_out(3);
  EXPECT_THROW(detail::bias_gelu(specials, short_out), Error);
}

TEST(GeluKernel, ScalarOracleMatchesLibm) {
#if defined(__GLIBC__)
  const char* version = gnu_get_libc_version();
  int major = 0;
  int minor = 0;
  ASSERT_EQ(std::sscanf(version, "%d.%d", &major, &minor), 2) << version;
  if (major > 2 || (major == 2 && minor >= 41)) {
    GTEST_SKIP() << "glibc " << version
                 << " ships CORE-MATH's tanhf, not fdlibm's";
  }
#else
  GTEST_SKIP() << "not glibc: this C library's tanhf need not be fdlibm's";
#endif
  std::size_t bad = 0;
  auto check = [&](std::span<const float> args) {
    for (const float a : args) {
      expect_same_bits(a, std::tanh(a), tanhf_oracle(a), "tanhf", bad);
    }
  };
  check(special_args());
  sweep(0, kAllFloats, 4099, check);
  for (const std::uint64_t sign : {0U, 0x80000000U}) {
    sweep(sign + 0x32000000U, sign + 0x41200000U, 251, check);
  }
  EXPECT_EQ(bad, 0U);
}

// All 2^32 floats as tanh arguments.  Run it with
// --gtest_also_run_disabled_tests --gtest_filter='GeluKernel.DISABLED_*'.
TEST(GeluKernel, DISABLED_EveryFloat) {
  std::size_t bad = 0;
  sweep(0, kAllFloats, 1,
        [&](std::span<const float> args) { check_tanh_lanes(args, bad); });
  EXPECT_EQ(bad, 0U);
}

TEST(ReferencePagerank, MatchesDensePowerIteration) {
  const auto program = make_pagerank(tiny());
  auto store = run_host(program);
  auto reference = program.make_store();
  const auto records = reference.at("edges_file").physical.as<EdgeRecord>();

  // Dense re-implementation with the same first-seen compaction.
  std::map<std::uint64_t, std::uint32_t> remap;
  auto id_of = [&](std::uint64_t v) {
    const auto [it, inserted] = remap.try_emplace(
        v, static_cast<std::uint32_t>(remap.size()));
    return it->second;
  };
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (const auto& e : records) {
    const auto s = id_of(e.src);
    const auto d = id_of(e.dst);
    edges.emplace_back(s, d);
  }
  const std::size_t v_count = remap.size();
  std::vector<double> degree(v_count, 0.0);
  for (const auto& [s, d] : edges) degree[s] += 1.0;

  std::vector<double> ranks(v_count, 1.0 / static_cast<double>(v_count));
  for (int iter = 0; iter < 4; ++iter) {
    std::vector<double> next(v_count,
                             0.15 / static_cast<double>(v_count));
    for (const auto& [s, d] : edges) {
      next[d] += 0.85 * ranks[s] / degree[s];
    }
    ranks = std::move(next);
  }

  const auto pipeline_ranks = store.at("ranks4").physical.as<double>();
  ASSERT_EQ(pipeline_ranks.size(), v_count);
  for (std::size_t v = 0; v < v_count; v += 211) {
    EXPECT_NEAR(pipeline_ranks[v], ranks[v], 1e-12) << "vertex " << v;
  }
}

TEST(ReferenceMatmul, WholeBatchMatches) {
  const auto program = make_matmul(tiny());
  auto store = run_host(program);
  auto reference = program.make_store();
  const auto a = reference.at("a_batch").physical.as<double>();
  const auto b = reference.at("b_batch").physical.as<double>();
  const auto c = store.at("c").physical.as<double>();
  constexpr std::size_t kDim = 32;
  const std::size_t pairs = std::min(a.size(), b.size()) / (kDim * kDim);
  ASSERT_EQ(c.size(), pairs * kDim * kDim);
  // Check a full matrix from the middle of the batch.
  const std::size_t p = pairs / 2;
  for (std::size_t i = 0; i < kDim; ++i) {
    for (std::size_t j = 0; j < kDim; ++j) {
      double expected = 0.0;
      for (std::size_t k = 0; k < kDim; ++k) {
        expected += a[p * kDim * kDim + i * kDim + k] *
                    b[p * kDim * kDim + k * kDim + j];
      }
      ASSERT_NEAR(c[p * kDim * kDim + i * kDim + j], expected, 1e-9);
    }
  }
}

TEST(SamplingBias, SortedDataIsAKnownLimitation) {
  // The paper's sampling heuristic takes leading subsets of the referenced
  // files; if the file is sorted by the filter key, the prefix is wildly
  // unrepresentative.  This test documents the limitation: the volume
  // prediction for a trailing-selectivity filter collapses to ~zero, the
  // planner still offloads (the reduction looks even better), and
  // correctness is unaffected — only the d_out estimate is off.
  auto program = make_tpch_q6(tiny());
  {
    auto& dataset =
        const_cast<ir::Dataset&>(program.datasets()[0]);
    auto rows = dataset.object.physical.as<LineitemRow>();
    std::sort(rows.begin(), rows.end(),
              [](const LineitemRow& x, const LineitemRow& y) {
                return x.ship_date < y.ship_date;
              });
  }
  system::SystemModel system;
  profile::Sampler sampler(system);
  const auto samples = sampler.run(program);
  // The Q6 year window [365, 730) sits past the sampled prefix
  // (prefix covers the earliest ship dates once sorted).
  const auto& scan_points = samples.lines[0].points;
  for (const auto& p : scan_points) {
    EXPECT_LT(p.out_bytes.as_double(),
              0.02 * p.in_bytes.as_double())
        << "sorted prefix should look almost empty after the filter";
  }
}

}  // namespace
}  // namespace isp::apps
