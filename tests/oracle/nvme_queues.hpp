// Test oracle: the NVMe command set, SQ/CQ queue pairs and ActivePy's
// function-call queue (§III-C(b)).
//
// The host submits commands on a submission queue and reads completions on
// the paired completion queue; the call queue lives in CSD memory mapped
// into the host's address space, where the host enqueues {function,
// argument block} records and the CSE fetches one whenever it is free.
// All three are nvme::Ring instances (nvme/control_plane.hpp), the ring the
// production status queue uses.
#pragma once

#include <cstdint>
#include <optional>

#include "nvme/control_plane.hpp"

namespace isp::nvme {

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

}  // namespace isp::nvme
