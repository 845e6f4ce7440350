#include "serve/breaker.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace isp::serve {

std::string_view to_string(BreakerState state) {
  switch (state) {
    case BreakerState::Closed:
      return "closed";
    case BreakerState::Open:
      return "open";
    case BreakerState::HalfOpen:
      return "half-open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(BreakerConfig config) : config_(config) {
  ISP_CHECK(config_.threshold > 0.0, "breaker threshold must be positive");
  ISP_CHECK(config_.decay_tau.value() > 0.0,
            "breaker decay tau must be positive");
  ISP_CHECK(config_.cooldown.value() > 0.0,
            "breaker cooldown must be positive");
  ISP_CHECK(config_.cooldown_multiplier >= 1.0,
            "breaker cooldown multiplier must be at least 1");
  current_cooldown_ = config_.cooldown;
}

double CircuitBreaker::score(SimTime now) const {
  if (now <= last_) return score_;
  return score_ *
         std::exp(-(now - last_).value() / config_.decay_tau.value());
}

SimTime CircuitBreaker::ready_at() const {
  if (!config_.enabled || state_ != BreakerState::Open) {
    return SimTime::zero();
  }
  return reopen_at_;
}

void CircuitBreaker::begin_probe(SimTime start) {
  ISP_CHECK(state_ == BreakerState::Open, "probe needs an Open breaker");
  ISP_CHECK(start >= reopen_at_, "probe dispatched inside the cooldown");
  decay_to(start);
  probe_in_flight_ = true;
  transition(BreakerState::HalfOpen, start);
}

void CircuitBreaker::abort_probe() {
  ISP_CHECK(state_ == BreakerState::HalfOpen && probe_in_flight_,
            "no probe to abort");
  probe_in_flight_ = false;
}

void CircuitBreaker::record_outcome(SimTime now, double severity) {
  if (!config_.enabled) return;
  ISP_CHECK(severity >= 0.0, "negative breaker severity");
  decay_to(now);
  score_ += severity;
  if (state_ == BreakerState::Closed && score_ >= config_.threshold) {
    reopen_at_ = now + current_cooldown_;
    transition(BreakerState::Open, now);
  }
}

void CircuitBreaker::probe_result(SimTime now, bool success) {
  ISP_CHECK(state_ == BreakerState::HalfOpen && probe_in_flight_,
            "no probe in flight to resolve");
  probe_in_flight_ = false;
  decay_to(now);
  if (success) {
    score_ = 0.0;
    current_cooldown_ = config_.cooldown;
    transition(BreakerState::Closed, now);
  } else {
    current_cooldown_ = current_cooldown_ * config_.cooldown_multiplier;
    reopen_at_ = now + current_cooldown_;
    transition(BreakerState::Open, now);
  }
}

void CircuitBreaker::decay_to(SimTime now) {
  // Same-wave queries may arrive a hair out of order (per-job ready times
  // are not monotone across tenants); treat a non-advancing clock as the
  // same instant rather than growing the score back.
  score_ = score(now);
  last_ = std::max(last_, now);
}

void CircuitBreaker::transition(BreakerState to, SimTime at) {
  transitions_.push_back(
      BreakerTransition{.from = state_, .to = to, .time = at, .score = score_});
  state_ = to;
}

}  // namespace isp::serve
