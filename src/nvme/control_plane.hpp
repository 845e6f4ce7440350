// ActivePy's host↔CSD control plane as the engine charges it (§III-C(b)).
//
// The paper's control plane is an NVMe-style short call plus a status
// queue.  The engine charges the call analytically — doorbell to fetch plus
// completion post, `ControllerConfig` below, summed by
// `CsdDevice::call_overhead()` — and posts each per-line progress record
// to the `StatusQueue`: the raw feed of the runtime monitor, plus the
// high-priority-request flag the device raises when it needs the host to
// take work back.  The ring follows NVMe semantics: capacity-1 usable
// slots, full when the advancing tail would meet the head, consumer owns the
// head.
//
// An event-driven model of the same protocol (SQ/CQ queue pairs, a
// controller, the firmware fetch loop) is a test oracle under tests/oracle/;
// it checks these analytic charges and is not part of any production
// library.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace isp::nvme {

/// Latencies of one NVMe-style short call.
struct ControllerConfig {
  Seconds doorbell_to_fetch = Seconds{2e-6};
  Seconds completion_post = Seconds{1e-6};
};

/// Fixed-capacity ring with NVMe full/empty semantics.
template <typename Entry>
class Ring {
 public:
  explicit Ring(std::uint32_t capacity) : slots_(capacity) {
    ISP_CHECK(capacity >= 2, "ring needs at least 2 slots");
  }

  [[nodiscard]] std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(slots_.size());
  }
  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] bool full() const { return next(tail_) == head_; }
  [[nodiscard]] std::uint32_t size() const {
    return (tail_ + capacity() - head_) % capacity();
  }

  /// Producer side; returns false if the ring is full.
  bool push(const Entry& e) {
    if (full()) return false;
    slots_[tail_] = e;
    tail_ = next(tail_);
    return true;
  }

  /// Consumer side; empty -> nullopt.
  std::optional<Entry> pop() {
    if (empty()) return std::nullopt;
    Entry e = slots_[head_];
    head_ = next(head_);
    return e;
  }

 private:
  [[nodiscard]] std::uint32_t next(std::uint32_t i) const {
    return (i + 1) % capacity();
  }

  std::vector<Entry> slots_;
  std::uint32_t head_ = 0;
  std::uint32_t tail_ = 0;
};

struct StatusEntry {
  std::uint32_t line = 0;          // program line being executed
  std::uint32_t chunk = 0;         // progress within the line
  std::uint32_t chunks_total = 0;
  double instructions_retired = 0; // for IPC computation
  SimTime timestamp;               // device-side virtual time of the update
  bool high_priority_request = false;  // device asks host to offload back
};

class StatusQueue {
 public:
  explicit StatusQueue(std::uint32_t depth) : ring_(depth) {}

  /// Device side.  A full ring drops the oldest record: status updates are
  /// advisory and the monitor only needs fresh ones.
  void post(const StatusEntry& e) {
    if (!ring_.push(e)) {
      (void)ring_.pop();
      [[maybe_unused]] const bool ok = ring_.push(e);
      ISP_DCHECK(ok, "status ring push failed after eviction");
      ++dropped_;
    }
    ++posted_;
  }

  /// Host side.
  std::optional<StatusEntry> poll() { return ring_.pop(); }

  [[nodiscard]] std::uint64_t posted() const { return posted_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  Ring<StatusEntry> ring_;
  std::uint64_t posted_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace isp::nvme
