// Three-way placement exploration: host / CSD / GPU (future work, §VI).
//
// Generalises Algorithm 1's projection to a third unit.  Exact dynamic
// programming over the line chain: state = (line index, unit holding the
// running intermediate), cost = compute at that unit + whatever the
// intermediate's move cost is at the boundary.  With three units and one
// linear chain the DP is tiny and *optimal* for the projected model — a
// stronger statement than the greedy gives, which is exactly what an
// exploration of "should ActivePy grow a third target?" wants.
//
// Transfer model per boundary, from the estimates:
//   * storage reads: NAND for the CSD, min(NAND, link) for host and GPU
//     (both sit across the system interconnect, §II-A);
//   * intermediates: free if the consumer stays on the producing unit,
//     one link crossing otherwise (CSD↔host, CSD↔GPU, host↔GPU are all
//     PCIe trips in Figure 1's topology).
#pragma once

#include <array>
#include <string_view>
#include <vector>

#include "bench/gpu.hpp"
#include "ir/plan.hpp"
#include "ir/program.hpp"
#include "system/model.hpp"

namespace isp::plan {

enum class Unit : std::uint8_t { Host = 0, Csd = 1, Gpu = 2 };

[[nodiscard]] std::string_view to_string(Unit unit);

struct ThreeWayResult {
  std::vector<Unit> placement;   // optimal unit per line (projected)
  Seconds projected;             // optimal projected end-to-end
  Seconds projected_two_way;     // optimum restricted to host/CSD
  Seconds projected_host_only;

  [[nodiscard]] std::size_t count(Unit unit) const;
};

/// Solve the three-way placement DP over `estimates` (from the sampling
/// phase or a measured reference run).
[[nodiscard]] ThreeWayResult explore_three_way(
    const ir::Program& program,
    const std::vector<ir::LineEstimate>& estimates,
    const system::SystemModel& system, const host::Gpu& gpu);

}  // namespace isp::plan
