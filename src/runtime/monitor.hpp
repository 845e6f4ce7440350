// Runtime monitoring and the migration decision (§III-D).
//
// The CSD's patched status-update code posts a progress record at the end of
// every chunk of every CSD line.  The monitor compares the observed
// instruction rate against the rate the sampling phase predicted and flags
// the two anomaly conditions the paper names:
//   (1) the instruction rate is decreasing, or
//   (2) the rate is significantly below the estimate.
// On an anomaly it re-estimates the remaining CSD time from the *measured*
// rate and compares against the full cost of moving the remaining work to
// the host (host compute + data movement + code regeneration).  Migration is
// recommended when the re-estimate loses.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "ir/plan.hpp"

namespace isp::runtime {

struct MonitorConfig {
  /// "Significantly below": observed rate under this fraction of estimate.
  double below_estimate_fraction = 0.8;
  /// Consecutive decreasing-rate observations that count as a trend.
  std::uint32_t decreasing_windows = 3;
  /// Minimum relative drop for a window to count as "decreasing" (noise
  /// floor so jitter does not trigger the trend detector).
  double decrease_tolerance = 0.05;
  /// Status updates closer together than this carry no rate signal (tiny
  /// lines finish in microseconds); such windows are skipped.
  Seconds min_window = Seconds{1e-3};
};

struct MigrationAdvice {
  bool migrate = false;
  Seconds remaining_on_csd;   // re-estimated from the measured rate
  Seconds cost_of_migration;  // regen + data movement + host compute
};

class Monitor {
 public:
  /// `estimated_rate` is the fallback instructions/second projection for CSD
  /// execution (total estimated instructions / total estimated device time);
  /// begin_line() replaces it with the current line's own projection, since
  /// lines legitimately run at different rates (parallelism, memory
  /// behaviour) and only a shortfall against the line's *own* estimate
  /// indicates contention.
  Monitor(MonitorConfig config, double estimated_rate);

  /// A new line starts on the CSD: reset the trend window and compare
  /// against this line's estimated rate (pass <= 0 to keep the previous).
  void begin_line(double estimated_rate_for_line);

  /// Feed one status update: cumulative instructions retired on the CSD and
  /// the device timestamp.  Returns true if an anomaly is active.
  bool observe(SimTime now, double instructions_cumulative);

  /// Price the migration decision given the remaining work.
  /// `instructions_remaining` covers the rest of the current line plus every
  /// later CSD line; the cost terms come from the plan estimates.
  [[nodiscard]] MigrationAdvice advise(double instructions_remaining,
                                       Seconds host_time_remaining,
                                       Seconds data_movement,
                                       Seconds regeneration) const;

  [[nodiscard]] double observed_rate() const { return observed_rate_; }
  [[nodiscard]] double estimated_rate() const { return estimated_rate_; }
  [[nodiscard]] bool anomaly() const { return anomaly_; }

  /// Device-initiated path (§III-D case 1): the CSD signalled through the
  /// command pages that it must serve high-priority work; the host reacts
  /// immediately rather than waiting for the rate detectors.
  void raise_high_priority() { anomaly_ = true; }

  /// A status update was dropped before the monitor saw it (fault
  /// injection, Site::StatusLoss).  Cumulative instruction counts make the
  /// stream self-healing — the next update covers the gap — so the monitor
  /// only counts the loss for the report.
  void note_lost_update() { ++lost_updates_; }
  [[nodiscard]] std::uint64_t lost_updates() const { return lost_updates_; }

 private:
  MonitorConfig config_;
  double estimated_rate_;
  double observed_rate_ = 0.0;
  std::uint32_t decreasing_streak_ = 0;
  bool anomaly_ = false;
  SimTime prev_time_;
  double prev_instructions_ = 0.0;
  bool has_window_ = false;
  std::uint64_t lost_updates_ = 0;
};

}  // namespace isp::runtime
