// PageRank over a Zipf-skewed edge list (Table I: 7.7 GB).
//
// The pipeline converts the edge list to a compacted CSR — remapping the
// distinct vertex ids to a dense range, as cache-conscious graph engines do —
// then runs damped power iterations and extracts the top-ranked vertices.
// The remap is a direct-indexed table over the generator's vertex domain
// (detail::DenseIds): dense ids in first-seen order, src before dst, and a
// vertex id outside the domain fails the run.
//
// CSR construction is the paper's estimation outlier (§V): its output volume
// is 4·E plus the row-pointer array over the *distinct* vertices, and the
// number of distinct vertices grows concavely in the number of edges
// sampled (hubs repeat).  A linear fit through the four small sample sizes
// therefore over-estimates the CSR volume at raw scale — by up to 2.41× in
// the paper, always in the conservative direction.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "apps/data_gen.hpp"
#include "apps/detail.hpp"

namespace isp::apps {

namespace {

constexpr double kDamping = 0.85;
constexpr std::uint32_t kIterations = 4;
constexpr std::size_t kTopK = 16;

struct CsrHeader {
  std::uint64_t vertices;
  std::uint64_t edges;
};

// Layout: CsrHeader | rowptr u64[V+1] | cols u32[E] (+ 4-byte pad to 8).
std::size_t csr_bytes(std::uint64_t v, std::uint64_t e) {
  std::size_t bytes = sizeof(CsrHeader) + (v + 1) * sizeof(std::uint64_t) +
                      e * sizeof(std::uint32_t);
  return (bytes + 7) & ~std::size_t{7};
}

const std::uint64_t* csr_rowptr(const std::byte* base) {
  return reinterpret_cast<const std::uint64_t*>(base + sizeof(CsrHeader));
}

const std::uint32_t* csr_cols(const std::byte* base, std::uint64_t v) {
  return reinterpret_cast<const std::uint32_t*>(
      base + sizeof(CsrHeader) + (v + 1) * sizeof(std::uint64_t));
}

void build_csr(ir::KernelCtx& ctx, std::uint32_t vertices) {
  const auto edges = ctx.input(0).physical.as<Edge>();

  // Compact the vertex id space: dense ids in first-seen order.
  detail::DenseIds ids(vertices);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> compact;
  compact.reserve(edges.size());
  for (const auto& e : edges) {
    // Sequence the remapping explicitly: argument evaluation order is
    // unspecified, and first-seen ids must be assigned src-before-dst for
    // the layout to be compiler-independent.
    const auto src = ids.id_of(e.src);
    const auto dst = ids.id_of(e.dst);
    compact.emplace_back(src, dst);
  }
  const std::uint64_t v_count = ids.size();
  const std::uint64_t e_count = compact.size();

  auto& out = ctx.output(0);
  out.physical.resize_elems<std::byte>(csr_bytes(v_count, e_count));
  auto* base = out.physical.as<std::byte>().data();
  auto* header = reinterpret_cast<CsrHeader*>(base);
  header->vertices = v_count;
  header->edges = e_count;
  auto* rowptr = const_cast<std::uint64_t*>(csr_rowptr(base));
  auto* cols = const_cast<std::uint32_t*>(csr_cols(base, v_count));

  std::vector<std::uint64_t> degree(v_count, 0);
  for (const auto& [src, dst] : compact) ++degree[src];
  rowptr[0] = 0;
  for (std::uint64_t v = 0; v < v_count; ++v) {
    rowptr[v + 1] = rowptr[v] + degree[v];
  }
  std::vector<std::uint64_t> cursor(rowptr, rowptr + v_count);
  for (const auto& [src, dst] : compact) {
    cols[cursor[src]++] = dst;
  }
}

void rank_iteration(ir::KernelCtx& ctx) {
  const auto* base = ctx.input(0).physical.as<std::byte>().data();
  const auto* header = reinterpret_cast<const CsrHeader*>(base);
  const auto v_count = header->vertices;
  const auto* rowptr = csr_rowptr(base);
  const auto* cols = csr_cols(base, v_count);
  const auto in = ctx.input(1).physical.as<double>();

  auto& out = ctx.output(0);
  out.physical.resize_elems<double>(v_count);
  auto dst = out.physical.as<double>();
  const double base_rank =
      v_count > 0 ? (1.0 - kDamping) / static_cast<double>(v_count) : 0.0;
  for (auto& r : dst) r = base_rank;
  for (std::uint64_t u = 0; u < v_count && u < in.size(); ++u) {
    const std::uint64_t deg = rowptr[u + 1] - rowptr[u];
    if (deg == 0) continue;
    const double share = kDamping * in[u] / static_cast<double>(deg);
    for (std::uint64_t i = rowptr[u]; i < rowptr[u + 1]; ++i) {
      dst[cols[i]] += share;
    }
  }
}

}  // namespace

ir::Program make_pagerank(const AppConfig& config) {
  ir::Program program("pagerank", config.virtual_scale);

  const Bytes size = detail::table_bytes(7.7, config);
  const std::size_t edges =
      detail::phys_elems(size, config, sizeof(EdgeRecord));
  // Vertex domain sized so that distinct-vertex growth is still unsaturated
  // at the sampling fractions but flattening at full scale (the CSR
  // over-estimation mechanism).
  const auto vertices =
      static_cast<std::uint32_t>(std::max<std::size_t>(edges / 2, 64));
  program.add_dataset(storage_dataset(
      "edges_file", size, edges * sizeof(EdgeRecord), sizeof(EdgeRecord),
      [&](mem::Buffer& b) {
        fill_edges_zipf(b, edges, vertices, /*skew=*/0.65,
                        Rng{config.seed}.fork(0x96a1));
      }));

  {
    ir::CodeRegion line;
    line.name = "edges = load_narrow(edges_file)";
    line.inputs = {"edges_file"};
    line.outputs = {"edges"};
    line.elem_bytes = sizeof(EdgeRecord);
    line.cost.cycles_per_elem = 32.0;  // 2 cycles/byte id narrowing
    line.host_threads = 1;
    line.csd_threads = 6;
    line.chunks = 64;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto in = ctx.input(0).physical.as<EdgeRecord>();
      auto& out = ctx.output(0);
      out.physical.resize_elems<Edge>(in.size());
      auto dst = out.physical.as<Edge>();
      for (std::size_t i = 0; i < in.size(); ++i) {
        dst[i] = Edge{static_cast<std::uint32_t>(in[i].src),
                      static_cast<std::uint32_t>(in[i].dst)};
      }
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "csr = to_csr(edges)";
    line.inputs = {"edges"};
    line.outputs = {"csr"};
    line.elem_bytes = sizeof(Edge);
    line.cost.cycles_per_elem = 96.0;  // hash remap + scatter per edge
    line.host_threads = 1;
    line.csd_threads = 6;
    line.chunks = 64;
    line.kernel = [vertices](ir::KernelCtx& ctx) { build_csr(ctx, vertices); };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "ranks0 = init_ranks(csr)";
    line.inputs = {"csr"};
    line.outputs = {"ranks0"};
    line.elem_bytes = 8.0;
    line.cost.base_cycles = 10000.0;
    line.cost.cycles_per_elem = 0.25;
    line.host_threads = 1;
    line.csd_threads = 8;
    line.chunks = 4;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto* base = ctx.input(0).physical.as<std::byte>().data();
      const auto* header = reinterpret_cast<const CsrHeader*>(base);
      auto& out = ctx.output(0);
      out.physical.resize_elems<double>(header->vertices);
      const double r = header->vertices > 0
                           ? 1.0 / static_cast<double>(header->vertices)
                           : 0.0;
      for (auto& v : out.physical.as<double>()) v = r;
    };
    program.add_line(std::move(line));
  }

  for (std::uint32_t it = 0; it < kIterations; ++it) {
    ir::CodeRegion line;
    line.name = "ranks" + std::to_string(it + 1) + " = iterate(csr, ranks" +
                std::to_string(it) + ")";
    line.inputs = {"csr", "ranks" + std::to_string(it)};
    line.outputs = {"ranks" + std::to_string(it + 1)};
    line.elem_bytes = 4.0;  // per CSR byte-ish unit (gather/scatter bound)
    line.cost.cycles_per_elem = 24.0;
    line.host_threads = 1;
    line.csd_threads = 7;
    line.chunks = 128;
    line.kernel = rank_iteration;
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "top = top_k(ranks" + std::to_string(kIterations) + ")";
    line.inputs = {"ranks" + std::to_string(kIterations)};
    line.outputs = {"top_vertices"};
    line.elem_bytes = sizeof(double);
    line.cost.cycles_per_elem = 8.0;
    line.host_threads = 1;
    line.csd_threads = 4;
    line.chunks = 4;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto ranks = ctx.input(0).physical.as<double>();
      std::vector<std::pair<double, std::uint32_t>> heap;
      heap.reserve(ranks.size());
      for (std::size_t i = 0; i < ranks.size(); ++i) {
        heap.emplace_back(ranks[i], static_cast<std::uint32_t>(i));
      }
      const std::size_t k = std::min(kTopK, heap.size());
      std::partial_sort(heap.begin(), heap.begin() + k, heap.end(),
                        [](const auto& a, const auto& b) {
                          return a.first > b.first;
                        });
      auto& out = ctx.output(0);
      out.physical.resize_elems<double>(2 * k);
      auto dst = out.physical.as<double>();
      for (std::size_t i = 0; i < k; ++i) {
        dst[2 * i] = heap[i].first;
        dst[2 * i + 1] = heap[i].second;
      }
    };
    program.add_line(std::move(line));
  }

  return program;
}

}  // namespace isp::apps
