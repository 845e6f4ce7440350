// The benchmark binary.  run.py builds it and calls
//
//   perfbench --workload pipeline|serve_hot|storage_churn --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// It prints a few human-readable lines, then one JSON object as the last
// line of stdout: attempted/failed counts, the metrics of the selected mode,
// and the iteration's work counters and output digests for run.py to diff
// against perfbench/expected.json.  Exit code 2 means bad arguments.
#include <malloc.h>
#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace perfbench {

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "pipeline|serve_hot|storage_churn --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') usage("bad integer");
  return v;
}

void print_json(const perfbench::Result& r) {
  std::printf("{\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}, \"counters\": {");
  bool first = true;
  for (const auto& [name, value] : r.counters) {
    std::printf("%s\"%s\": %" PRIu64, first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}, \"digests\": {");
  first = true;
  for (const auto& [name, value] : r.digests) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", name.c_str(),
                value.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing flag value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_u64(value);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_u64(value));
      if (options.seconds < 1.0) usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      const std::string_view t = value;
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      options.trace = t == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_trace) usage("--trace is required");

  // Keep freed memory in the process heap.  By default glibc returns large
  // blocks to the kernel on free, so every serve() call faulted its few
  // hundred MiB in afresh and a third of its time was the kernel zeroing
  // pages, at whatever speed the host's memory had that second.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  perfbench::Result result;
  try {
    if (options.workload == "pipeline") {
      result = perfbench::run_pipeline(options);
    } else if (options.workload == "serve_hot") {
      result = perfbench::run_serve_hot(options);
    } else if (options.workload == "storage_churn") {
      result = perfbench::run_storage_churn(options);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  for (const auto& e : result.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::printf("workload %s seed %" PRIu64 " (variant %" PRIu64
              "): %" PRIu64 " checked, %" PRIu64 " failed\n",
              options.workload.c_str(), options.seed,
              options.seed % perfbench::kVariants, result.attempted,
              result.failed);
  for (const auto& m : result.metrics) {
    std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  print_json(result);
  return 0;
}
