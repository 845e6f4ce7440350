#include "bench/three_way.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace isp::plan {

std::string_view to_string(Unit unit) {
  switch (unit) {
    case Unit::Host:
      return "host";
    case Unit::Csd:
      return "csd";
    case Unit::Gpu:
      return "gpu";
  }
  return "?";
}

std::size_t ThreeWayResult::count(Unit unit) const {
  std::size_t n = 0;
  for (const auto u : placement) n += (u == unit) ? 1 : 0;
  return n;
}

namespace {

constexpr std::size_t kUnits = 3;

struct Dp {
  std::array<double, kUnits> cost;
  std::array<std::array<std::uint8_t, kUnits>, 1> unused{};
};

double line_cost(const ir::Program& program,
                 const std::vector<ir::LineEstimate>& estimates,
                 const system::SystemModel& system, const host::Gpu& gpu,
                 std::size_t i, Unit unit) {
  const auto& est = estimates[i];
  const auto& line = program.lines()[i];
  const double link = system.link().effective_bandwidth().value();
  const double nand = system.storage_to_csd_bandwidth().value();
  const double host_storage = system.storage_to_host_bandwidth().value();

  double compute = 0.0;
  double storage = 0.0;
  switch (unit) {
    case Unit::Host:
      compute = est.ct_host.value();
      storage = est.storage_in.as_double() / host_storage;
      break;
    case Unit::Csd:
      compute = est.ct_device.value();
      storage = est.storage_in.as_double() / nand;
      break;
    case Unit::Gpu: {
      // Work in host-core-seconds: undo the host wall's thread division.
      const double host_eff = static_cast<double>(
          std::min(line.host_threads, system.host_cpu().config().cores));
      const Seconds work{est.ct_host.value() * host_eff};
      compute = gpu.compute_seconds(work, line.csd_threads).value();
      // Raw data crosses the interconnect to the GPU, like the host path.
      storage = est.storage_in.as_double() / std::min(host_storage, link);
      break;
    }
  }
  return compute + storage;
}

}  // namespace

ThreeWayResult explore_three_way(
    const ir::Program& program,
    const std::vector<ir::LineEstimate>& estimates,
    const system::SystemModel& system, const host::Gpu& gpu) {
  const std::size_t n = program.line_count();
  ISP_CHECK(estimates.size() == n, "estimates do not match program");
  ISP_CHECK(n > 0, "empty program");
  const double link = system.link().effective_bandwidth().value();

  const auto solve = [&](bool allow_gpu) {
    // dp[u]: best projected time with line i placed on unit u.
    std::array<double, kUnits> dp{};
    std::vector<std::array<std::uint8_t, kUnits>> parent(
        n, std::array<std::uint8_t, kUnits>{});
    const double inf = std::numeric_limits<double>::infinity();

    for (std::size_t i = 0; i < n; ++i) {
      std::array<double, kUnits> next{};
      for (std::size_t u = 0; u < kUnits; ++u) {
        if (!allow_gpu && u == static_cast<std::size_t>(Unit::Gpu)) {
          next[u] = inf;
          continue;
        }
        const double own = line_cost(program, estimates, system, gpu, i,
                                     static_cast<Unit>(u));
        if (i == 0) {
          next[u] = own;  // inputs come from storage; no boundary yet
          continue;
        }
        double best = inf;
        std::uint8_t best_prev = 0;
        for (std::size_t p = 0; p < kUnits; ++p) {
          if (dp[p] == inf) continue;
          const double boundary =
              (p == u) ? 0.0
                       : estimates[i].d_in.as_double() / link;
          const double candidate = dp[p] + boundary + own;
          if (candidate < best) {
            best = candidate;
            best_prev = static_cast<std::uint8_t>(p);
          }
        }
        next[u] = best;
        parent[i][u] = best_prev;
      }
      dp = next;
    }

    // Results end in host memory.
    for (std::size_t u = 0; u < kUnits; ++u) {
      if (u != static_cast<std::size_t>(Unit::Host) && dp[u] < inf) {
        dp[u] += estimates[n - 1].d_out.as_double() / link;
      }
    }

    std::size_t last = 0;
    for (std::size_t u = 1; u < kUnits; ++u) {
      if (dp[u] < dp[last]) last = u;
    }
    std::vector<Unit> placement(n, Unit::Host);
    std::size_t cursor = last;
    for (std::size_t i = n; i-- > 0;) {
      placement[i] = static_cast<Unit>(cursor);
      cursor = parent[i][cursor];
    }
    return std::make_pair(dp[last], placement);
  };

  ThreeWayResult result;
  auto [three_cost, three_placement] = solve(/*allow_gpu=*/true);
  auto [two_cost, two_placement] = solve(/*allow_gpu=*/false);
  result.placement = std::move(three_placement);
  result.projected = Seconds{three_cost};
  result.projected_two_way = Seconds{two_cost};

  double host_only = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    host_only += line_cost(program, estimates, system, gpu, i, Unit::Host);
  }
  result.projected_host_only = Seconds{host_only};
  return result;
}

}  // namespace isp::plan
