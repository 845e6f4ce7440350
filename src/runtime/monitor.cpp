#include "runtime/monitor.hpp"

#include "common/error.hpp"

namespace isp::runtime {

Monitor::Monitor(MonitorConfig config, double estimated_rate)
    : config_(config), estimated_rate_(estimated_rate) {
  ISP_CHECK(estimated_rate_ > 0.0, "estimated instruction rate must be > 0");
}

void Monitor::begin_line(double estimated_rate_for_line) {
  if (estimated_rate_for_line > 0.0) {
    estimated_rate_ = estimated_rate_for_line;
  }
  // Rates differ across lines by design; only an intra-line decline is a
  // contention signal.
  decreasing_streak_ = 0;
  observed_rate_ = 0.0;
  has_window_ = false;
}

bool Monitor::observe(SimTime now, double instructions_cumulative) {
  if (!has_window_) {
    prev_time_ = now;
    prev_instructions_ = instructions_cumulative;
    has_window_ = true;
    return anomaly_;
  }
  const double dt = (now - prev_time_).value();
  if (dt < config_.min_window.value()) return anomaly_;
  const double di = instructions_cumulative - prev_instructions_;
  prev_time_ = now;
  prev_instructions_ = instructions_cumulative;
  if (dt <= 0.0) return anomaly_;

  const double rate = di / dt;
  // Condition (1): decreasing trend.
  if (observed_rate_ > 0.0 &&
      rate < observed_rate_ * (1.0 - config_.decrease_tolerance)) {
    ++decreasing_streak_;
  } else {
    decreasing_streak_ = 0;
  }
  observed_rate_ = rate;

  // Condition (2): significantly below the estimate.
  const bool below =
      rate < estimated_rate_ * config_.below_estimate_fraction;
  anomaly_ = below || decreasing_streak_ >= config_.decreasing_windows;
  return anomaly_;
}

MigrationAdvice Monitor::advise(double instructions_remaining,
                                Seconds host_time_remaining,
                                Seconds data_movement,
                                Seconds regeneration) const {
  MigrationAdvice advice;
  const double rate = observed_rate_ > 0.0 ? observed_rate_ : estimated_rate_;
  advice.remaining_on_csd = Seconds{instructions_remaining / rate};
  advice.cost_of_migration =
      regeneration + data_movement + host_time_remaining;
  advice.migrate = anomaly_ &&
                   advice.remaining_on_csd > advice.cost_of_migration;
  return advice;
}

}  // namespace isp::runtime
