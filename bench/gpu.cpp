#include "bench/gpu.hpp"

#include "common/error.hpp"

namespace isp::host {

Gpu::Gpu(GpuConfig config) : config_(config) {
  ISP_CHECK(config_.speedup_vs_host_core > 0.0,
            "GPU speedup must be positive");
}

Seconds Gpu::compute_seconds(Seconds work,
                             std::uint32_t parallel_width) const {
  if (parallel_width < config_.min_parallel_width) {
    // A serial region on a GPU runs on what amounts to one slow lane;
    // model it as a single host core plus launch cost (never attractive).
    return config_.launch_overhead + work;
  }
  return config_.launch_overhead + work / config_.speedup_vs_host_core;
}

}  // namespace isp::host
