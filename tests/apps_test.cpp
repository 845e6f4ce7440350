// Functional tests for the evaluation workloads: every kernel computes real
// results, and results are identical regardless of where lines run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "apps/data_gen.hpp"
#include "apps/registry.hpp"
#include "baseline/baselines.hpp"
#include "common/digest.hpp"
#include "runtime/engine.hpp"

namespace isp::apps {
namespace {

/// Small configuration so functional runs stay fast.
AppConfig test_config() {
  AppConfig config;
  config.size_factor = 0.05;
  config.seed = 1234;
  return config;
}

runtime::EngineOptions quiet() {
  runtime::EngineOptions options;
  options.monitoring = false;
  options.migration = false;
  return options;
}

ir::ObjectStore run_on(system::SystemModel& system, const ir::Program& program,
                       ir::Placement everywhere) {
  ir::Plan plan = ir::Plan::host_only(program.line_count());
  for (auto& p : plan.placement) p = everywhere;
  auto store = program.make_store();
  runtime::run_program(system, program, plan, codegen::ExecMode::NativeC,
                       quiet(), &store);
  return store;
}

TEST(Registry, AllAppsBuildAndValidate) {
  for (const auto& app : all_apps()) {
    const auto program = make_app(app.name, test_config());
    EXPECT_NO_THROW(program.validate()) << app.name;
    EXPECT_GE(program.line_count(), 3u) << app.name;
    EXPECT_GT(program.total_storage_bytes().count(), 0u) << app.name;
  }
  EXPECT_EQ(table1_apps().size(), 9u);
  EXPECT_EQ(all_apps().size(), 10u);
}

TEST(Registry, UnknownAppThrows) {
  EXPECT_THROW(make_app("no-such-app", test_config()), Error);
}

TEST(Registry, FullScaleSizesMatchTable1) {
  for (const auto& app : table1_apps()) {
    const auto program = make_app(app.name, AppConfig{});
    EXPECT_NEAR(program.total_storage_bytes().as_double(),
                app.table1_bytes.as_double(),
                app.table1_bytes.as_double() * 0.02)
        << app.name;
  }
}

TEST(TpchQ6, RevenueMatchesDirectComputation) {
  system::SystemModel system;
  const auto program = make_tpch_q6(test_config());
  auto store = run_on(system, program, ir::Placement::Host);

  // Recompute straight from the generated rows.
  auto reference = program.make_store();
  const auto rows = reference.at("lineitem").physical.as<LineitemRow>();
  double expected = 0.0;
  for (const auto& row : rows) {
    if (row.ship_date >= 365 && row.ship_date < 730 &&
        row.discount >= 0.05 - 1e-9 && row.discount <= 0.07 + 1e-9 &&
        row.quantity < 24.0) {
      expected += row.extended_price * row.discount;
    }
  }
  EXPECT_GT(expected, 0.0);
  EXPECT_DOUBLE_EQ(store.at("q6_revenue").physical.as<double>()[0], expected);
}

TEST(TpchQ1, GroupAveragesAreSane) {
  system::SystemModel system;
  const auto program = make_tpch_q1(test_config());
  auto store = run_on(system, program, ir::Placement::Host);
  const auto report = store.at("q1_report").physical.as<double>();
  ASSERT_EQ(report.size(), 18u);  // 6 groups x 3 averages
  for (std::size_t g = 0; g < 6; ++g) {
    EXPECT_GE(report[g * 3 + 0], 1.0);    // avg quantity in [1, 50]
    EXPECT_LE(report[g * 3 + 0], 50.0);
    EXPECT_GE(report[g * 3 + 2], 0.0);    // avg discount in [0, 0.1]
    EXPECT_LE(report[g * 3 + 2], 0.1);
  }
}

TEST(TpchQ14, PromoRatioInRange) {
  system::SystemModel system;
  const auto program = make_tpch_q14(test_config());
  auto store = run_on(system, program, ir::Placement::Host);
  const auto result = store.at("q14_result").physical.as<double>();
  ASSERT_EQ(result.size(), 3u);
  EXPECT_GE(result[0], 0.0);
  EXPECT_LE(result[0], 100.0);
  // ~20% of part types are PROMO, so the ratio should be visibly nonzero.
  EXPECT_GT(result[0], 5.0);
  EXPECT_GT(result[2], 0.0);  // total revenue
}

TEST(Blackscholes, PricesAreArbitrageFreeIsh) {
  system::SystemModel system;
  const auto program = make_blackscholes(test_config());
  auto store = run_on(system, program, ir::Placement::Host);
  const auto stats = store.at("price_stats").physical.as<double>();
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_TRUE(std::isfinite(stats[0]));
  EXPECT_GT(stats[0], 0.0);    // mean price positive
  EXPECT_GE(stats[2], -1e-3);  // min price never meaningfully negative
  EXPECT_LT(stats[3], 250.0);  // max bounded by spot range
}

TEST(Kmeans, LabelsWithinClusterCount) {
  system::SystemModel system;
  const auto program = make_kmeans(test_config());
  auto store = run_on(system, program, ir::Placement::Host);
  const auto labels = store.at("labels").physical.as<std::uint32_t>();
  ASSERT_GT(labels.size(), 0u);
  for (const auto label : labels) EXPECT_LT(label, 8u);
  // Points land in more than one cluster.
  std::uint32_t first = labels[0];
  bool diverse = false;
  for (const auto label : labels) diverse = diverse || (label != first);
  EXPECT_TRUE(diverse);
}

TEST(Lightgbm, HistogramAccountsForEveryRow) {
  system::SystemModel system;
  const auto program = make_lightgbm(test_config());
  auto store = run_on(system, program, ir::Placement::Host);
  const auto summary = store.at("label_summary").physical.as<std::uint64_t>();
  const auto margins = store.at("margins").physical.as<float>();
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary[0] + summary[1], margins.size());
}

TEST(Matmul, MatchesReferenceGemm) {
  system::SystemModel system;
  const auto program = make_matmul(test_config());
  auto store = run_on(system, program, ir::Placement::Host);

  auto reference = program.make_store();
  const auto a = reference.at("a_batch").physical.as<double>();
  const auto b = reference.at("b_batch").physical.as<double>();
  const auto c = store.at("c").physical.as<double>();
  ASSERT_GE(c.size(), 32u * 32u);
  // Spot-check one entry of the first pair.
  double expect = 0.0;
  for (std::size_t k = 0; k < 32; ++k) expect += a[k] * b[k * 32 + 3];
  EXPECT_NEAR(c[3], expect, 1e-9);
  EXPECT_GT(store.at("c_norm").physical.as<double>()[0], 0.0);
}

TEST(Mixedgemm, SummaryBoundedByGelu) {
  system::SystemModel system;
  const auto program = make_mixedgemm(test_config());
  auto store = run_on(system, program, ir::Placement::Host);
  const auto summary = store.at("logit_summary").physical.as<float>();
  ASSERT_GT(summary.size(), 0u);
  for (const auto v : summary) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Pagerank, RanksFormDistribution) {
  system::SystemModel system;
  const auto program = make_pagerank(test_config());
  auto store = run_on(system, program, ir::Placement::Host);
  const auto ranks = store.at("ranks4").physical.as<double>();
  ASSERT_GT(ranks.size(), 100u);
  double total = 0.0;
  for (const auto r : ranks) {
    EXPECT_GE(r, 0.0);
    total += r;
  }
  // Damped PageRank over a graph with dangling vertices sums to <= 1.
  EXPECT_GT(total, 0.3);
  EXPECT_LE(total, 1.0 + 1e-6);
  const auto top = store.at("top_vertices").physical.as<double>();
  ASSERT_GE(top.size(), 2u);
  // Top-ranked value is the maximum.
  double max_rank = 0.0;
  for (const auto r : ranks) max_rank = std::max(max_rank, r);
  EXPECT_DOUBLE_EQ(top[0], max_rank);
}

TEST(Sparsemv, PowerIterationStaysNormalised) {
  system::SystemModel system;
  const auto program = make_sparsemv(test_config());
  auto store = run_on(system, program, ir::Placement::Host);
  const auto x = store.at("x3").physical.as<double>();
  double norm_sq = 0.0;
  for (const auto v : x) norm_sq += v * v;
  EXPECT_NEAR(std::sqrt(norm_sq), 1.0, 1e-9);
  EXPECT_NEAR(store.at("eigen_estimate").physical.as<double>()[0], 1.0, 1e-9);
}

TEST(DataGen, LineitemDistributions) {
  mem::Buffer buffer;
  fill_lineitem(buffer, 10000, 1000, Rng{7});
  const auto rows = buffer.as<LineitemRow>();
  double discount_hits = 0;
  for (const auto& row : rows) {
    EXPECT_GE(row.quantity, 1.0);
    EXPECT_LE(row.quantity, 50.0);
    EXPECT_GE(row.discount, 0.0);
    EXPECT_LE(row.discount, 0.10 + 1e-9);
    EXPECT_GE(row.ship_date, 0);
    EXPECT_LT(row.ship_date, 2555);
    EXPECT_LT(static_cast<std::uint32_t>(row.part_key), 1000u);
    discount_hits += (row.discount >= 0.05 && row.discount <= 0.07) ? 1 : 0;
  }
  // Three of eleven discount buckets.
  EXPECT_NEAR(discount_hits / 10000.0, 3.0 / 11.0, 0.03);
}

TEST(DataGen, ForestIsWellFormed) {
  mem::Buffer buffer;
  fill_forest(buffer, 10, 4, 8, Rng{9});
  const auto nodes = buffer.as<TreeNode>();
  ASSERT_EQ(nodes.size(), forest_nodes(10, 4));
  const std::size_t per_tree = (1u << 4) - 1;
  const std::size_t internal = (1u << 3) - 1;
  for (std::size_t t = 0; t < 10; ++t) {
    for (std::size_t n = 0; n < per_tree; ++n) {
      const auto& node = nodes[t * per_tree + n];
      if (n < internal) {
        EXPECT_GE(node.feature, 0);
        EXPECT_LT(node.feature, 8);
      } else {
        EXPECT_EQ(node.feature, -1);
      }
    }
  }
}

TEST(DataGen, ZipfEdgesConcaveDistinctGrowth) {
  mem::Buffer buffer;
  fill_edges_zipf(buffer, 40000, 20000, 0.65, Rng{5});
  const auto edges = buffer.as<EdgeRecord>();
  auto distinct_in_prefix = [&](std::size_t count) {
    std::set<std::uint64_t> seen;
    for (std::size_t i = 0; i < count; ++i) {
      seen.insert(edges[i].src);
      seen.insert(edges[i].dst);
    }
    return seen.size();
  };
  const double d1 = static_cast<double>(distinct_in_prefix(5000));
  const double d2 = static_cast<double>(distinct_in_prefix(40000));
  // Distinct vertices grow sublinearly: 8x the edges, well under 8x the
  // vertices — the CSR over-estimation mechanism.
  EXPECT_LT(d2 / d1, 6.0);
  EXPECT_GT(d2, d1);
}

// Kernel goldens: the FNV-1a of every line output (name, size, bytes, in
// line order) of the kernels that carry the pipeline's wall time, recorded
// before any of them was optimised.  A kernel may get faster, but it must
// reproduce these bytes exactly: the constants never change.
struct GoldenCase {
  double size_factor;
  std::uint64_t seed;
  std::uint64_t digest;
};

/// Digest of every output of `program` run on the host, up to and including
/// the line that produces `last` (empty: every line).
std::uint64_t output_digest(const ir::Program& program,
                            const std::string& last = {}) {
  system::SystemModel system;
  const auto store = run_on(system, program, ir::Placement::Host);
  std::uint64_t h = kFnvOffset;
  for (const auto& line : program.lines()) {
    bool done = false;
    for (const auto& name : line.outputs) {
      const auto bytes = store.at(name).physical.as<std::byte>();
      h = fnv1a(h, name);
      h = fnv1a(h, static_cast<std::uint64_t>(bytes.size()));
      h = fnv1a_bytes(h, bytes.data(), bytes.size());
      done = done || name == last;
    }
    if (done) break;
  }
  return h;
}

void expect_goldens(const char* app, const std::vector<GoldenCase>& cases,
                    const std::string& last = {}) {
  for (const auto& c : cases) {
    AppConfig config;
    config.size_factor = c.size_factor;
    config.seed = c.seed;
    const auto digest = output_digest(make_app(app, config), last);
    EXPECT_EQ(digest, c.digest)
        << app << " size_factor " << c.size_factor << " seed " << c.seed
        << ": got 0x" << std::hex << digest;
  }
}

TEST(KernelGolden, Lightgbm) {
  expect_goldens("lightgbm", {{0.003, 42, 0xc22e6d66c1b20aeaULL},
                              {0.003, 99, 0x53268cf282b3f830ULL},
                              {0.03, 42, 0x17926c7fbce44ac2ULL},
                              {0.03, 99, 0x9df9ddd67661c7d4ULL}});
}

TEST(KernelGolden, Pagerank) {
  expect_goldens("pagerank", {{0.003, 42, 0x4174dedda85bdf66ULL},
                              {0.003, 99, 0x0997be0f55c75ce6ULL},
                              {0.03, 42, 0xb9394b20df3eab27ULL},
                              {0.03, 99, 0xb4586b3cf09429edULL}});
}

TEST(KernelGolden, Sparsemv) {
  expect_goldens("sparsemv", {{0.003, 42, 0x92ae33ac0c792502ULL},
                              {0.003, 99, 0x5bfd8bc1bdc46231ULL},
                              {0.03, 42, 0xea899046f17d1e1fULL},
                              {0.03, 99, 0x98e2527ab087711eULL}});
}

TEST(KernelGolden, Kmeans) {
  expect_goldens("kmeans", {{0.003, 42, 0xdc527ef921b2bcd5ULL},
                            {0.003, 99, 0xce63d37f1193c3d5ULL},
                            {0.03, 42, 0x61f8e614ea84b528ULL},
                            {0.03, 99, 0x96dbe7ab0c0d728eULL}});
}

// Through `logits` only, so the GEMM and the bf16 loads are pinned apart
// from the GELU epilogue and a drift names its stage.
TEST(KernelGolden, MixedgemmThroughLogits) {
  expect_goldens("mixedgemm",
                 {{0.003, 42, 0x513eddfc3f84abc1ULL},
                  {0.003, 99, 0xd1fb23f2969b839eULL},
                  {0.03, 42, 0xb13693968c0e0c81ULL},
                  {0.03, 99, 0xa76958c504ed3f96ULL}},
                 "logits");
}

// Every line output, `activated` and `logit_summary` included.  Recorded
// while the GELU epilogue called glibc 2.36's tanhf (fdlibm's); its lanes
// now reproduce that tanhf bit for bit without calling the C library.
TEST(KernelGolden, Mixedgemm) {
  expect_goldens("mixedgemm", {{0.003, 42, 0x0fa77140c74b3fd8ULL},
                               {0.003, 99, 0xf5571e003ecf231eULL},
                               {0.03, 42, 0x871883952d6e12a9ULL},
                               {0.03, 99, 0x71455b2d3fec973fULL}});
}

// Dataset goldens: the FNV-1a of every generated dataset (name, virtual
// size, physical bytes, in program order), recorded before the generators
// were optimised.  The generators are a bit-exact contract; these constants
// never change.
std::uint64_t dataset_digest(const ir::Program& program) {
  std::uint64_t h = kFnvOffset;
  for (const auto& dataset : program.datasets()) {
    const auto bytes = dataset.object.physical.as<std::byte>();
    h = fnv1a(h, dataset.object.name);
    h = fnv1a(h, dataset.object.virtual_bytes.count());
    h = fnv1a(h, static_cast<std::uint64_t>(bytes.size()));
    h = fnv1a_bytes(h, bytes.data(), bytes.size());
  }
  return h;
}

struct DatasetCase {
  const char* app;
  double size_factor;
  std::uint64_t seed;
  std::uint64_t digest;
};

void expect_datasets(const std::vector<DatasetCase>& cases) {
  for (const auto& c : cases) {
    AppConfig config;
    config.size_factor = c.size_factor;
    config.seed = c.seed;
    const auto digest = dataset_digest(make_app(c.app, config));
    EXPECT_EQ(digest, c.digest)
        << c.app << " size_factor " << c.size_factor << " seed " << c.seed
        << ": got 0x" << std::hex << digest;
  }
}

// Every registered app at the pipeline benchmark's size, at the default
// seed and one other.
TEST(DatasetGolden, AllAppsAtPipelineSize) {
  expect_datasets({
      {"tpch-q1", 0.05, 42, 0xed827620c8c39c6fULL},
      {"tpch-q1", 0.05, 7, 0xef24328818821f67ULL},
      {"tpch-q6", 0.05, 42, 0xed827620c8c39c6fULL},
      {"tpch-q6", 0.05, 7, 0xef24328818821f67ULL},
      {"tpch-q14", 0.05, 42, 0xda65f75389fd72b3ULL},
      {"tpch-q14", 0.05, 7, 0x00544af9710c5c0aULL},
      {"blackscholes", 0.05, 42, 0xe037b25cf78436b2ULL},
      {"blackscholes", 0.05, 7, 0x4ce146f4ae10a4cdULL},
      {"kmeans", 0.05, 42, 0x50dfcc9ad04c885cULL},
      {"kmeans", 0.05, 7, 0x88039caa2b00a699ULL},
      {"lightgbm", 0.05, 42, 0x54c8d5ba593d57acULL},
      {"lightgbm", 0.05, 7, 0x2ec1bbcca6680371ULL},
      {"matrixmul", 0.05, 42, 0xacd6b0de10816e82ULL},
      {"matrixmul", 0.05, 7, 0xd01c6fcbcd92a2f8ULL},
      {"mixedgemm", 0.05, 42, 0xf7e7d6409c662b67ULL},
      {"mixedgemm", 0.05, 7, 0x6bae94805b251973ULL},
      {"pagerank", 0.05, 42, 0xf83ab07685be85b2ULL},
      {"pagerank", 0.05, 7, 0xa8d32814bfb064a2ULL},
      {"sparsemv", 0.05, 42, 0x6466604b7436a5f8ULL},
      {"sparsemv", 0.05, 7, 0xb7efe73e8705d701ULL},
  });
}

// The serving benchmark's other classes (kmeans at 0.05 is above).
TEST(DatasetGolden, ServeClasses) {
  expect_datasets({
      {"tpch-q6", 0.2, 42, 0xf89646c7a0b3fe54ULL},
      {"tpch-q6", 0.2, 7, 0x450c9394ef8773d9ULL},
      {"tpch-q6", 0.02, 42, 0xf6a77afe98fd341bULL},
      {"tpch-q6", 0.02, 7, 0x5aec8c36f63e0560ULL},
  });
}

// Property: functional results are identical for host-only, all-CSD and the
// programmer-directed placements (placement must never change semantics).
class PlacementEquivalence
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PlacementEquivalence, SameBytesEverywhere) {
  const auto program = make_app(GetParam(), test_config());

  system::SystemModel host_system;
  auto host_store = run_on(host_system, program, ir::Placement::Host);

  system::SystemModel csd_system;
  auto csd_store = run_on(csd_system, program, ir::Placement::Csd);

  // Every object produced by the program has identical physical bytes.
  for (const auto& line : program.lines()) {
    for (const auto& name : line.outputs) {
      const auto& h = host_store.at(name).physical;
      const auto& c = csd_store.at(name).physical;
      ASSERT_EQ(h.size_bytes(), c.size_bytes()) << name;
      const auto hb = h.as<std::byte>();
      const auto cb = c.as<std::byte>();
      EXPECT_EQ(0, std::memcmp(hb.data(), cb.data(), hb.size())) << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, PlacementEquivalence,
                         ::testing::Values("blackscholes", "kmeans",
                                           "lightgbm", "matrixmul",
                                           "mixedgemm", "pagerank", "tpch-q1",
                                           "tpch-q6", "tpch-q14", "sparsemv"));

}  // namespace
}  // namespace isp::apps
