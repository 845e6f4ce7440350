#include "oracle/simulator.hpp"

#include <utility>

#include "common/error.hpp"

namespace isp::sim {

void Simulator::schedule(Seconds delay, Action action) {
  ISP_CHECK(delay.value() >= 0.0, "cannot schedule into the past");
  schedule_at(now_ + delay, std::move(action));
}

void Simulator::schedule_at(SimTime at, Action action) {
  ISP_CHECK(at >= now_, "cannot schedule before now()");
  queue_.push(Entry{at, next_seq_++, std::move(action)});
}

SimTime Simulator::run() { return run_until(SimTime::infinity()); }

SimTime Simulator::run_until(SimTime until) {
  while (!queue_.empty() && queue_.top().at <= until) {
    // Copy out before pop: the action may schedule new events.
    Entry entry{queue_.top().at, queue_.top().seq, queue_.top().action};
    queue_.pop();
    now_ = entry.at;
    ++events_executed_;
    entry.action();
  }
  if (queue_.empty()) return now_;
  if (until < SimTime::infinity() && now_ < until) now_ = until;
  return now_;
}

}  // namespace isp::sim
