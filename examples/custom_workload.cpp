// Custom workload: author a brand-new application against the public API and
// let the runtime place it — no ISP knowledge required in the "program".
//
//   $ ./examples/custom_workload
//
// The workload is a log-analytics pipeline that is NOT part of the paper's
// evaluation: scan a large structured log, keep error records, sessionise
// them, and produce a top-talkers digest.  The point of the example is the
// authoring surface: datasets + lines with real kernels and cost laws; the
// sampling phase, Algorithm 1, code generation and monitoring come for free.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "apps/data_gen.hpp"
#include "baseline/baselines.hpp"
#include "runtime/active_runtime.hpp"

namespace {

using namespace isp;

struct LogRecord {
  std::uint32_t source_id;
  std::uint32_t status;  // HTTP-ish status code
  std::uint64_t latency_us;
};
static_assert(sizeof(LogRecord) == 16);

ir::Program make_log_analytics() {
  // 8 GB of log records, physically scaled 128:1 like the paper workloads.
  constexpr double kVirtualScale = 128.0;
  const Bytes virtual_bytes = gigabytes(8.0);
  const auto records = static_cast<std::size_t>(
      virtual_bytes.as_double() / kVirtualScale / sizeof(LogRecord));

  ir::Program program("log-analytics", kVirtualScale);

  ir::Dataset logs;
  logs.object.name = "log_file";
  logs.object.location = mem::Location::Storage;
  logs.object.virtual_bytes = virtual_bytes;
  logs.object.physical.resize_elems<LogRecord>(records);
  logs.elem_bytes = sizeof(LogRecord);
  {
    Rng rng(2026);
    const ZipfDraw source(100000, 0.8);
    for (auto& r : logs.object.physical.as<LogRecord>()) {
      r.source_id = static_cast<std::uint32_t>(source(rng));
      const double p = rng.next_double();
      r.status = p < 0.92 ? 200 : (p < 0.97 ? 404 : 500);
      r.latency_us = rng.uniform_u64(100, 50000);
    }
  }
  program.add_dataset(std::move(logs));

  {
    ir::CodeRegion line;
    line.name = "errors = logs[status >= 500]";
    line.inputs = {"log_file"};
    line.outputs = {"errors"};
    line.elem_bytes = sizeof(LogRecord);
    line.cost.cycles_per_elem = 48.0;  // 3 cycles/byte predicate
    line.csd_threads = 6;
    line.chunks = 64;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto in = ctx.input(0).physical.as<LogRecord>();
      std::size_t kept = 0;
      for (const auto& r : in) kept += (r.status >= 500) ? 1 : 0;
      auto& out = ctx.output(0);
      out.physical.resize_elems<LogRecord>(kept);
      auto dst = out.physical.as<LogRecord>();
      std::size_t i = 0;
      for (const auto& r : in) {
        if (r.status >= 500) dst[i++] = r;
      }
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "sessions = group_by_source(errors)";
    line.inputs = {"errors"};
    line.outputs = {"sessions"};
    line.elem_bytes = sizeof(LogRecord);
    line.cost.cycles_per_elem = 120.0;  // hash aggregation
    line.csd_threads = 4;
    line.chunks = 16;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto in = ctx.input(0).physical.as<LogRecord>();
      std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> agg;
      for (const auto& r : in) {
        auto& [count, total_latency] = agg[r.source_id];
        ++count;
        total_latency += r.latency_us;
      }
      auto& out = ctx.output(0);
      out.physical.resize_elems<std::uint64_t>(agg.size() * 3);
      auto dst = out.physical.as<std::uint64_t>();
      std::size_t i = 0;
      for (const auto& [source, pair] : agg) {
        dst[i++] = source;
        dst[i++] = pair.first;
        dst[i++] = pair.second;
      }
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "digest = top_talkers(sessions)";
    line.inputs = {"sessions"};
    line.outputs = {"digest"};
    line.elem_bytes = 3.0 * sizeof(std::uint64_t);
    line.cost.cycles_per_elem = 40.0;
    line.csd_threads = 2;
    line.chunks = 4;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto in = ctx.input(0).physical.as<std::uint64_t>();
      std::vector<std::pair<std::uint64_t, std::uint64_t>> talkers;
      for (std::size_t i = 0; i + 2 < in.size(); i += 3) {
        talkers.emplace_back(in[i + 1], in[i]);  // (count, source)
      }
      const std::size_t k = std::min<std::size_t>(10, talkers.size());
      std::partial_sort(talkers.begin(), talkers.begin() + k, talkers.end(),
                        std::greater<>());
      auto& out = ctx.output(0);
      out.physical.resize_elems<std::uint64_t>(2 * k);
      auto dst = out.physical.as<std::uint64_t>();
      for (std::size_t i = 0; i < k; ++i) {
        dst[2 * i] = talkers[i].second;
        dst[2 * i + 1] = talkers[i].first;
      }
    };
    program.add_line(std::move(line));
  }

  return program;
}

}  // namespace

int main() {
  const auto program = make_log_analytics();
  program.validate();

  system::SystemModel system;
  const auto baseline = baseline::run_host_only(system, program);
  std::printf("log-analytics (8 GB of records), no-ISP C baseline: %.2f s\n",
              baseline.total.value());

  runtime::ActiveRuntime runtime(system);
  const auto result = runtime.run(program);

  std::printf("ActiveCpp end-to-end: %.2f s (%.2fx), plan: ",
              result.end_to_end().value(),
              baseline.total.value() / result.end_to_end().value());
  for (const auto p : result.plan.placement) {
    std::printf("%c", p == ir::Placement::Csd ? 'C' : 'h');
  }
  std::printf("\n\n%s", result.report.to_string().c_str());

  // The digest itself, computed on the physically scaled payload.
  auto store = program.make_store();
  runtime::EngineOptions options;
  options.monitoring = false;
  options.migration = false;
  runtime::run_program(system, program, result.plan,
                       codegen::ExecMode::NativeC, options, &store);
  const auto digest = store.at("digest").physical.as<std::uint64_t>();
  std::printf("\ntop error sources (source id: error count):\n");
  for (std::size_t i = 0; i + 1 < digest.size(); i += 2) {
    std::printf("  %6llu: %llu\n",
                static_cast<unsigned long long>(digest[i]),
                static_cast<unsigned long long>(digest[i + 1]));
  }
  return 0;
}
