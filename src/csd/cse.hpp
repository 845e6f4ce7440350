// Computational storage engine: the CSD's processor complex (§IV-A).
//
// Eight ARM Cortex-A72-class cores.  A single A72 core at 1.5 GHz retires
// roughly half the work per cycle of a Zen2 core, so its speed relative to
// one host core is (1.5/3.6) × 0.5 ≈ 0.21 — the CSE is *slower* than the
// host per core (§II-B(1)); offload only wins when the firmware spreads a
// data-parallel line across all eight cores and the data-volume savings of
// Equation 1 pay for the remaining gap.
//
// The availability schedule models the fraction of CSE capacity left to the
// ISP task when the device also serves other tenants or storage-management
// work — the x-axis of Figure 2 and the stress knob of Figure 5.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "sim/availability.hpp"

namespace isp::csd {

struct CseConfig {
  std::uint32_t cores = 8;
  Hertz clock = ghz(1.5);
  /// Work per cycle relative to a host core at equal clock (micro-arch gap).
  double ipc_vs_host = 0.5;
  /// Host core clock, for the speed ratio (kept here so the CSE can answer
  /// performance-counter queries without a host handle).
  Hertz host_clock = ghz(3.6);
};

/// Hardware performance counters the runtime queries to derive the paper's
/// constant factor C (§III-A) without running a calibration kernel.
struct CseCounters {
  double cycles = 0.0;
  double instructions = 0.0;

  [[nodiscard]] double ipc() const {
    return cycles > 0.0 ? instructions / cycles : 0.0;
  }
};

class Cse {
 public:
  Cse() : Cse(CseConfig{}) {}
  explicit Cse(CseConfig config);

  [[nodiscard]] const CseConfig& config() const { return config_; }

  /// Speed of one CSE core relative to one host core.
  [[nodiscard]] double core_speed_vs_host() const;

  /// Wall time (at full availability) of `work` host-core seconds spread
  /// over `threads` CSE cores.
  [[nodiscard]] Seconds compute_seconds(Seconds work,
                                        std::uint32_t threads) const;

  void set_availability(sim::AvailabilitySchedule schedule);
  [[nodiscard]] const sim::AvailabilitySchedule& availability() const {
    return availability_;
  }

  /// Performance-counter bookkeeping (fed by the execution engine).
  void retire(double instructions, double cycles);
  [[nodiscard]] const CseCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = CseCounters{}; }

 private:
  CseConfig config_;
  sim::AvailabilitySchedule availability_;
  CseCounters counters_;
};

}  // namespace isp::csd
