// GPU compute-unit model (future-work exploration).
//
// The paper's platform carries an NVIDIA RTX 2080 (§IV-A) and its framing —
// "heterogeneous computing platforms", "migrate tasks among different
// compute units" (§VI) — points past the host/CSD pair.  This model is the
// third unit for the analytic three-way placement explorer
// (bench/three_way.hpp): massively parallel compute behind the same
// bandwidth-constrained system interconnect, so a GPU-placed task pays the
// raw-input trip over the link exactly like the host does, then computes at
// a large multiple of a host core — *if* the line parallelises.
//
// Deliberately not wired into the execution engine: the paper's system is
// host+CSD, and the reproduction keeps its engine faithful.  The explorer
// answers "what would a third unit change about the placements?" as
// analysis, so both live beside the reproduction driver (E12), outside the
// production libraries.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace isp::host {

struct GpuConfig {
  /// Aggregate throughput of the device relative to one host core for a
  /// fully data-parallel kernel (RTX-2080-class vs one Zen2 core, memory-
  /// bandwidth-bound workloads included in the average).
  double speedup_vs_host_core = 40.0;
  /// Kernel-launch and driver overhead per offloaded line.
  Seconds launch_overhead = Seconds{20e-6};
  /// Minimum CSE-style parallel width a line needs before the GPU helps at
  /// all; below this the line is effectively serial and the GPU loses to a
  /// single host core.
  std::uint32_t min_parallel_width = 4;
};

class Gpu {
 public:
  Gpu() : Gpu(GpuConfig{}) {}
  explicit Gpu(GpuConfig config);

  [[nodiscard]] const GpuConfig& config() const { return config_; }

  /// Wall time of `work` host-core-seconds for a line whose data-parallel
  /// width is `parallel_width` (the line's csd_threads is the available
  /// proxy: firmware-parallelisable lines are GPU-parallelisable).
  [[nodiscard]] Seconds compute_seconds(Seconds work,
                                        std::uint32_t parallel_width) const;

 private:
  GpuConfig config_;
};

}  // namespace isp::host
