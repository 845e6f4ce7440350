// Per-lane health circuit breaker for the serving loop.
//
// A CSD lane that keeps injecting faults or forcing migrations is alive but
// not worth dispatching to: every job it burns re-enters the queue with one
// less retry in its budget.  The breaker turns the lane's recent trouble
// into an exponentially-decayed score and gates placement on it:
//
//   Closed   — healthy.  Completed jobs fold their severity (exhausted
//              fault episodes, migrations, power cycles) into the score;
//              when the decayed score crosses `threshold` the breaker
//              Opens at that instant.
//   Open     — the lane accepts nothing until `cooldown` of virtual time
//              has passed (ready_at()).  The first job placed at or after
//              that instant is the *probe* and moves the breaker to
//              HalfOpen.
//   HalfOpen — exactly one probe job is in flight.  A clean probe
//              (severity 0) re-Closes the breaker and resets the score and
//              cooldown; a troubled probe re-Opens it with the cooldown
//              doubled (capped growth via cooldown_multiplier), so a lane
//              that stays flaky is probed geometrically less often.
//
// Everything is pure virtual-time bookkeeping driven serially by the
// serving loop's decision/fold phases, so transitions are deterministic and
// byte-identical across `--jobs` values.  Every transition is recorded for
// the `serve.breaker.*` metrics and the fleet timeline.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/units.hpp"

namespace isp::serve {

enum class BreakerState : std::uint8_t { Closed, Open, HalfOpen };

[[nodiscard]] std::string_view to_string(BreakerState state);

struct BreakerConfig {
  /// A disabled breaker never opens and charges nothing.
  bool enabled = true;
  /// Decayed severity score that trips Closed -> Open.
  double threshold = 12.0;
  /// Exponential decay time constant of the score (virtual seconds).
  Seconds decay_tau{2.0};
  /// Virtual time an Open breaker waits before allowing the probe job.
  Seconds cooldown{1.0};
  /// Probe failure multiplies the next cooldown by this factor.
  double cooldown_multiplier = 2.0;
};

/// One recorded state transition (virtual time, score at the instant).
struct BreakerTransition {
  BreakerState from = BreakerState::Closed;
  BreakerState to = BreakerState::Closed;
  SimTime time;
  double score = 0.0;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig config);

  [[nodiscard]] const BreakerConfig& config() const { return config_; }
  [[nodiscard]] BreakerState state() const { return state_; }
  [[nodiscard]] bool probe_in_flight() const { return probe_in_flight_; }

  /// The decayed score as seen from `now` (no mutation).
  [[nodiscard]] double score(SimTime now) const;

  /// Earliest instant the lane may accept a job: zero while Closed (or
  /// disabled), the end of the cooldown while Open.
  [[nodiscard]] SimTime ready_at() const;

  /// The dispatch starting at `start` (>= ready_at()) is the probe:
  /// Open -> HalfOpen, one job in flight.
  void begin_probe(SimTime start);

  /// The probe was lost to a device death; the lane is gone, clear the
  /// in-flight flag without a transition.
  void abort_probe();

  /// Fold a finished non-probe job's severity into the score; may trip
  /// Closed -> Open at `now`.
  void record_outcome(SimTime now, double severity);

  /// Resolve the HalfOpen probe: success re-Closes (score and cooldown
  /// reset), failure re-Opens with the cooldown multiplied.
  void probe_result(SimTime now, bool success);

  [[nodiscard]] const std::vector<BreakerTransition>& transitions() const {
    return transitions_;
  }

 private:
  void decay_to(SimTime now);
  void transition(BreakerState to, SimTime at);

  BreakerConfig config_;
  BreakerState state_ = BreakerState::Closed;
  double score_ = 0.0;
  SimTime last_;                     // score is decayed as of this instant
  SimTime reopen_at_;                // Open only: cooldown end
  Seconds current_cooldown_ = config_.cooldown;
  bool probe_in_flight_ = false;
  std::vector<BreakerTransition> transitions_;
};

}  // namespace isp::serve
