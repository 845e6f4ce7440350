// Test oracle: the NVMe command set, SQ/CQ queue pairs, and ActivePy's
// function-call and status queues (§III-C(b)).
//
// The host submits commands on a submission queue and reads completions on
// the paired completion queue; the call queue lives in CSD memory mapped
// into the host's address space, where the host enqueues {function,
// argument block} records and the CSE fetches one whenever it is free.  The
// status queue carries the device's per-chunk progress records, and the
// high-priority-request flag it raises when it needs the host to take work
// back, to the runtime monitor.  All four are Ring instances.
//
// Production charges each call and each status update analytically
// (csd/device.hpp) and keeps none of these queues.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace isp::nvme {

/// Fixed-capacity ring with NVMe semantics: capacity-1 usable slots, full
/// when the advancing tail would meet the head, consumer owns the head.
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

enum class Opcode : std::uint8_t {
  Read = 0x02,
  Write = 0x01,
  CsdExec = 0x80,    // vendor-specific: launch a generated CSD function
  CsdAbort = 0x81,   // vendor-specific: break at next line boundary
};

struct SubmissionEntry {
  Opcode opcode = Opcode::Read;
  std::uint16_t command_id = 0;
  std::uint64_t lba = 0;          // logical page for IO commands
  std::uint32_t length_pages = 0; // IO length
  std::uint64_t arg_address = 0;  // BAR address of the argument block (CsdExec)
};

enum class Status : std::uint8_t { Success = 0, Aborted = 1, Error = 2 };

struct CompletionEntry {
  std::uint16_t command_id = 0;
  Status status = Status::Success;
};

/// A bound SQ/CQ pair.
class QueuePair {
 public:
  QueuePair(std::uint16_t id, std::uint32_t depth)
      : id_(id), sq_(depth), cq_(depth) {}

  [[nodiscard]] std::uint16_t id() const { return id_; }
  [[nodiscard]] Ring<SubmissionEntry>& sq() { return sq_; }
  [[nodiscard]] Ring<CompletionEntry>& cq() { return cq_; }

 private:
  std::uint16_t id_;
  Ring<SubmissionEntry> sq_;
  Ring<CompletionEntry> cq_;
};

struct CallEntry {
  std::uint32_t function_id = 0;  // index into the generated CSD binary
  std::uint32_t first_line = 0;   // program line the function starts at
  std::uint64_t arg_block = 0;    // device address of the argument block
};

class CallQueue {
 public:
  explicit CallQueue(std::uint32_t depth) : ring_(depth) {}

  bool submit(const CallEntry& e) { return ring_.push(e); }
  std::optional<CallEntry> fetch() { return ring_.pop(); }
  [[nodiscard]] bool empty() const { return ring_.empty(); }
  [[nodiscard]] std::uint32_t depth() const { return ring_.capacity(); }

 private:
  Ring<CallEntry> ring_;
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
