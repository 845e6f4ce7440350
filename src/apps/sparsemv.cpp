// SparseMV: repeated sparse matrix–vector multiplication over a triplet
// stream (discussed in §V alongside PageRank as the second CSR workload;
// not in Table I — we size it at 6.5 GB, between the listed datasets).
//
// Triplets are compacted into CSR over one shared row/column id space (the
// matrix is treated as an operator on that space), then three y = A·x power
// steps run with renormalisation, ending in a norm.  The compaction remaps
// ids through a direct-indexed table over the generator's id domain
// (detail::DenseIds): first-seen order, row before column, and an id outside
// the domain fails the run.  Like PageRank, the CSR conversion's output
// volume is concave in sampled triplets, so ActivePy over-estimates it.
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "apps/data_gen.hpp"
#include "apps/detail.hpp"

namespace isp::apps {

namespace {

/// On-disk record: double-precision value plus 4 bytes of alignment, as the
/// upstream solver dumps it.
struct TripletRecord {
  std::uint32_t row;
  std::uint32_t col;
  double value;
};
static_assert(sizeof(TripletRecord) == 16);

/// In-memory compact triplet after the load narrows values to float.
struct Triplet {
  std::uint32_t row;
  std::uint32_t col;
  float value;
};
static_assert(sizeof(Triplet) == 12);

constexpr std::uint32_t kIterations = 3;

struct CsrHeader {
  std::uint64_t vertices;  // shared row/col space after compaction
  std::uint64_t nnz;
};

// Layout: CsrHeader | rowptr u64[V+1] | cols u32[N] | vals f32[N] (8-pad).
std::size_t csr_bytes(std::uint64_t v, std::uint64_t n) {
  std::size_t bytes = sizeof(CsrHeader) + (v + 1) * sizeof(std::uint64_t) +
                      n * (sizeof(std::uint32_t) + sizeof(float));
  return (bytes + 7) & ~std::size_t{7};
}

const std::uint64_t* rowptr_of(const std::byte* base) {
  return reinterpret_cast<const std::uint64_t*>(base + sizeof(CsrHeader));
}
const std::uint32_t* cols_of(const std::byte* base, std::uint64_t v) {
  return reinterpret_cast<const std::uint32_t*>(
      base + sizeof(CsrHeader) + (v + 1) * sizeof(std::uint64_t));
}
const float* vals_of(const std::byte* base, std::uint64_t v,
                     std::uint64_t n) {
  return reinterpret_cast<const float*>(
      base + sizeof(CsrHeader) + (v + 1) * sizeof(std::uint64_t) +
      n * sizeof(std::uint32_t));
}

void build_csr(ir::KernelCtx& ctx, std::uint32_t id_domain) {
  const auto triplets = ctx.input(0).physical.as<Triplet>();

  detail::DenseIds ids(id_domain);
  std::vector<Triplet> compact;
  compact.reserve(triplets.size());
  for (const auto& t : triplets) {
    // Sequenced explicitly: brace-init evaluates left-to-right by the
    // standard, but keep the remap order unmistakable.
    const auto row = ids.id_of(t.row);
    const auto col = ids.id_of(t.col);
    compact.push_back(Triplet{row, col, t.value});
  }
  const std::uint64_t v_count = ids.size();
  const std::uint64_t nnz = compact.size();

  auto& out = ctx.output(0);
  out.physical.resize_elems<std::byte>(csr_bytes(v_count, nnz));
  auto* base = out.physical.as<std::byte>().data();
  auto* header = reinterpret_cast<CsrHeader*>(base);
  header->vertices = v_count;
  header->nnz = nnz;
  auto* rowptr = const_cast<std::uint64_t*>(rowptr_of(base));
  auto* cols = const_cast<std::uint32_t*>(cols_of(base, v_count));
  auto* vals = const_cast<float*>(vals_of(base, v_count, nnz));

  std::vector<std::uint64_t> degree(v_count, 0);
  for (const auto& t : compact) ++degree[t.row];
  rowptr[0] = 0;
  for (std::uint64_t v = 0; v < v_count; ++v) {
    rowptr[v + 1] = rowptr[v] + degree[v];
  }
  std::vector<std::uint64_t> cursor(rowptr, rowptr + v_count);
  for (const auto& t : compact) {
    const auto at = cursor[t.row]++;
    cols[at] = t.col;
    vals[at] = t.value;
  }
}

void spmv_step(ir::KernelCtx& ctx) {
  const auto* base = ctx.input(0).physical.as<std::byte>().data();
  const auto* header = reinterpret_cast<const CsrHeader*>(base);
  const auto v_count = header->vertices;
  const auto* rowptr = rowptr_of(base);
  const auto* cols = cols_of(base, v_count);
  const auto* vals = vals_of(base, v_count, header->nnz);
  const auto x = ctx.input(1).physical.as<double>();

  auto& out = ctx.output(0);
  out.physical.resize_elems<double>(v_count);
  auto y = out.physical.as<double>();
  double norm_sq = 0.0;
  for (std::uint64_t r = 0; r < v_count; ++r) {
    double acc = 0.0;
    for (std::uint64_t i = rowptr[r]; i < rowptr[r + 1]; ++i) {
      const auto c = cols[i];
      if (c < x.size()) acc += static_cast<double>(vals[i]) * x[c];
    }
    y[r] = acc;
    norm_sq += acc * acc;
  }
  const double norm = std::sqrt(norm_sq);
  if (norm > 0.0) {
    for (auto& v : y) v /= norm;
  }
}

}  // namespace

ir::Program make_sparsemv(const AppConfig& config) {
  ir::Program program("sparsemv", config.virtual_scale);

  const Bytes size = detail::table_bytes(6.5, config);
  const std::size_t nnz =
      detail::phys_elems(size, config, sizeof(TripletRecord));
  const auto ids =
      static_cast<std::uint32_t>(std::max<std::size_t>(nnz / 2, 64));
  program.add_dataset(storage_dataset(
      "triplets_file", size, nnz * sizeof(TripletRecord),
      sizeof(TripletRecord), [&](mem::Buffer& b) {
        b.resize_elems<TripletRecord>(nnz);
        Rng rng = Rng{config.seed}.fork(0x50a7);
        const ZipfDraw id(ids, 0.65);
        for (auto& t : b.as<TripletRecord>()) {
          t.row = static_cast<std::uint32_t>(id(rng));
          t.col = static_cast<std::uint32_t>(id(rng));
          t.value = rng.uniform(-1.0, 1.0);
        }
      }));

  {
    ir::CodeRegion line;
    line.name = "triplets = load_narrow(triplets_file)";
    line.inputs = {"triplets_file"};
    line.outputs = {"triplets"};
    line.elem_bytes = sizeof(TripletRecord);
    line.cost.cycles_per_elem = 32.0;  // 2 cycles/byte narrowing
    line.host_threads = 1;
    line.csd_threads = 6;
    line.chunks = 64;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto in = ctx.input(0).physical.as<TripletRecord>();
      auto& out = ctx.output(0);
      out.physical.resize_elems<Triplet>(in.size());
      auto dst = out.physical.as<Triplet>();
      for (std::size_t i = 0; i < in.size(); ++i) {
        dst[i] = Triplet{in[i].row, in[i].col,
                         static_cast<float>(in[i].value)};
      }
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "csr = to_csr(triplets)";
    line.inputs = {"triplets"};
    line.outputs = {"csr"};
    line.elem_bytes = sizeof(Triplet);
    line.cost.cycles_per_elem = 96.0;  // 8 cycles/byte remap + scatter
    line.host_threads = 1;
    line.csd_threads = 6;
    line.chunks = 64;
    line.kernel = [ids](ir::KernelCtx& ctx) { build_csr(ctx, ids); };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "x0 = ones(csr)";
    line.inputs = {"csr"};
    line.outputs = {"x0"};
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
      const double v0 =
          header->vertices > 0
              ? 1.0 / std::sqrt(static_cast<double>(header->vertices))
              : 0.0;
      for (auto& v : out.physical.as<double>()) v = v0;
    };
    program.add_line(std::move(line));
  }

  for (std::uint32_t it = 0; it < kIterations; ++it) {
    ir::CodeRegion line;
    line.name = "x" + std::to_string(it + 1) + " = normalize(A @ x" +
                std::to_string(it) + ")";
    line.inputs = {"csr", "x" + std::to_string(it)};
    line.outputs = {"x" + std::to_string(it + 1)};
    line.elem_bytes = 4.0;
    line.cost.cycles_per_elem = 20.0;  // gather-heavy FMA per CSR word
    line.host_threads = 1;
    line.csd_threads = 7;
    line.chunks = 128;
    line.kernel = spmv_step;
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "lambda = rayleigh(x" + std::to_string(kIterations) + ")";
    line.inputs = {"x" + std::to_string(kIterations)};
    line.outputs = {"eigen_estimate"};
    line.elem_bytes = sizeof(double);
    line.cost.cycles_per_elem = 2.0;
    line.host_threads = 1;
    line.csd_threads = 8;
    line.chunks = 4;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto x = ctx.input(0).physical.as<double>();
      double norm_sq = 0.0;
      for (const double v : x) norm_sq += v * v;
      auto& out = ctx.output(0);
      out.physical.resize_elems<double>(1);
      out.physical.as<double>()[0] = std::sqrt(norm_sq);
    };
    program.add_line(std::move(line));
  }

  return program;
}

}  // namespace isp::apps
