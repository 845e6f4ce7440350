#include "csd/cse.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace isp::csd {

Cse::Cse(CseConfig config) : config_(config) {
  ISP_CHECK(config_.cores > 0, "CSE needs at least one core");
  ISP_CHECK(config_.clock.value() > 0.0 && config_.host_clock.value() > 0.0,
            "clocks must be positive");
  ISP_CHECK(config_.ipc_vs_host > 0.0, "ipc ratio must be positive");
}

double Cse::core_speed_vs_host() const {
  return (config_.clock.value() / config_.host_clock.value()) *
         config_.ipc_vs_host;
}

Seconds Cse::compute_seconds(Seconds work, std::uint32_t threads) const {
  ISP_CHECK(threads > 0, "compute needs at least one thread");
  const auto usable = std::min(threads, config_.cores);
  return work / (static_cast<double>(usable) * core_speed_vs_host());
}

void Cse::set_availability(sim::AvailabilitySchedule schedule) {
  availability_ = std::move(schedule);
}

void Cse::retire(double instructions, double cycles) {
  counters_.instructions += instructions;
  counters_.cycles += cycles;
}

}  // namespace isp::csd
