// The computational storage device: CSE + flash + device DRAM + the NVMe
// control plane ActivePy talks through (Figure 1 of the paper).  The control
// plane is charged analytically: call_overhead() per short call, and the
// status queue the engine posts its per-line progress records to.
#pragma once

#include <memory>

#include "csd/cse.hpp"
#include "flash/backend.hpp"
#include "flash/flash_array.hpp"
#include "flash/ftl.hpp"
#include "mem/address_space.hpp"
#include "nvme/control_plane.hpp"

namespace isp::csd {

/// Slots in the device's status ring (capacity-1 usable, NVMe semantics).
inline constexpr std::uint32_t kStatusQueueDepth = 256;

struct CsdConfig {
  CseConfig cse;
  flash::NandGeometry nand_geometry;
  flash::NandTiming nand_timing;
  /// Which storage-management model the device runs (flash/backend.hpp):
  /// the page-mapped FTL with device-side GC, or the zoned namespace with
  /// append-only zones and host-coordinated reclaim.
  flash::BackendKind backend = flash::BackendKind::Ftl;
  double ftl_overprovision = 0.125;
  /// The device backend journals its metadata by default: a real CSD must
  /// survive power loss.  (A bare Ftl constructed directly stays
  /// journal-free, so existing unit tests and cost models are unchanged.)
  flash::FtlJournalConfig ftl_journal{.enabled = true};
  /// ZNS-only shape knobs (ignored by the FTL backend).
  std::uint32_t zns_zone_blocks = 8;
  std::uint32_t zns_max_open_zones = 6;
  Bytes device_dram = 8_GiB;
  nvme::ControllerConfig controller;
};

/// What one whole-device power cycle did and cost.
struct PowerCycleOutcome {
  flash::StorageCrash crash;             // volatile backend state lost
  flash::StorageRecovery recovery;       // remount replay/scan statistics
  Seconds remount_time;                  // recovery media reads × page_read
};

class CsdDevice {
 public:
  /// Validates the backend config here (an infeasible FTL or ZNS shape
  /// throws Error at construction, with the backend's own message), but
  /// allocates the backend and its per-page maps only on first storage()
  /// use: most runs never drive storage.
  explicit CsdDevice(CsdConfig config);

  [[nodiscard]] Cse& cse() { return cse_; }
  [[nodiscard]] const Cse& cse() const { return cse_; }
  [[nodiscard]] flash::FlashArray& flash_array() { return flash_; }
  [[nodiscard]] const flash::FlashArray& flash_array() const { return flash_; }
  /// The storage-management backend behind the pluggable seam (FTL or ZNS,
  /// per CsdConfig::backend), built on the first call.
  [[nodiscard]] flash::StorageBackend& storage();
  /// Has storage() built the backend yet?
  [[nodiscard]] bool storage_built() const { return storage_ != nullptr; }
  [[nodiscard]] nvme::StatusQueue& status_queue() { return status_queue_; }
  [[nodiscard]] const CsdConfig& config() const { return config_; }

  /// Round-trip control overhead of one CSD function invocation: doorbell to
  /// fetch plus completion post (the paper's NVMe-style short-latency call).
  [[nodiscard]] Seconds call_overhead() const;

  /// Whole-device power cycle: clear the CSE's volatile perf counters, then
  /// crash and remount a journaling storage backend (checkpoint + journal
  /// replay, OOB tail scan).  Returns the outcome; remount_time converts the
  /// remount's media reads through NandTiming.  The caller charges the
  /// reset downtime itself (FaultConfig::power_cycle).  Builds the backend
  /// if needed, so the outcome never depends on whether anything touched
  /// storage first.
  PowerCycleOutcome power_cycle();

 private:
  CsdConfig config_;
  Cse cse_;
  flash::FlashArray flash_;
  std::unique_ptr<flash::StorageBackend> storage_;  // null until storage()
  nvme::StatusQueue status_queue_;
};

}  // namespace isp::csd
