// Unified host/device address space (§III-C(a)).
//
// ActivePy maps CSD memory into the host program's virtual address space
// through PCIe BARs (or RDMA under NVMe-oF), so host and CSD code share one
// address space and migration only has to move data, never re-point it.
// AddressSpace models that single space as disjoint windows, one per memory
// kind, and answers "which memory does this address live in?".  The engine
// tracks residency per object (DataObject::location) and asks it nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/units.hpp"

namespace isp::mem {

enum class MemKind : std::uint8_t {
  HostDram = 0,
  DeviceDram,   // CSD DRAM reachable by the CSE at full speed
  DeviceBar,    // CSD DRAM window exposed to host loads/stores
  kCount
};

[[nodiscard]] std::string_view to_string(MemKind kind);

struct Window {
  MemKind kind = MemKind::HostDram;
  std::uint64_t base = 0;
  Bytes size;

  [[nodiscard]] bool contains(std::uint64_t addr) const {
    return addr >= base && addr - base < size.count();
  }
  [[nodiscard]] std::uint64_t end() const { return base + size.count(); }
};

class AddressSpace {
 public:
  /// Register a window; windows must not overlap.
  void map(MemKind kind, std::uint64_t base, Bytes size);

  [[nodiscard]] std::optional<MemKind> kind_of(std::uint64_t addr) const;
  [[nodiscard]] const Window* window(MemKind kind) const;
  [[nodiscard]] const std::vector<Window>& windows() const { return windows_; }

  /// Conventional layout used by the whole project: host DRAM at 0,
  /// device DRAM next, and a BAR alias window above it.
  static AddressSpace standard_layout(Bytes host_dram, Bytes device_dram);

 private:
  std::vector<Window> windows_;
};

}  // namespace isp::mem
