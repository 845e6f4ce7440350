// Test oracle: a discrete-event simulation core.
//
// The production engine walks virtual time analytically and never schedules
// an event.  This core runs the event-driven control-plane oracle (the NVMe
// controller and the firmware fetch loop under tests/oracle/) on a virtual
// clock of its own.  Determinism: ties in time are broken by insertion
// sequence number, so a given program of schedules always replays
// identically.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/units.hpp"

namespace isp::sim {

/// Event-driven virtual-time simulator.
class Simulator {
 public:
  using Action = std::function<void()>;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `action` to run `delay` after the current time.
  void schedule(Seconds delay, Action action);

  /// Schedule `action` at absolute time `at` (must not be in the past).
  void schedule_at(SimTime at, Action action);

  /// Run events until the queue drains. Returns the final time.
  SimTime run();

  /// Run events with time <= `until`; the clock ends at min(until, drain
  /// time of remaining events... it never advances past `until`).
  SimTime run_until(SimTime until);

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  /// True if no scheduled events remain.
  [[nodiscard]] bool idle() const { return queue_.empty(); }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

}  // namespace isp::sim
