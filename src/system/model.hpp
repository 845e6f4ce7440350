// SystemModel: one assembled heterogeneous computer (Figure 1) — host CPU,
// host link, and a CSD — sharing a unified address space.  It holds no
// clock: the engine walks virtual time analytically and each run starts its
// own.  Everything above this layer (profiler, planner, engine) takes a
// SystemModel and never constructs hardware itself.
#pragma once

#include <memory>

#include "csd/device.hpp"
#include "host/cpu.hpp"
#include "interconnect/dma.hpp"
#include "interconnect/link.hpp"
#include "mem/address_space.hpp"
#include "system/config.hpp"

namespace isp::system {

class SystemModel {
 public:
  explicit SystemModel(SystemConfig config = SystemConfig::paper_platform());

  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] host::HostCpu& host_cpu() { return host_; }
  [[nodiscard]] const host::HostCpu& host_cpu() const { return host_; }
  [[nodiscard]] csd::CsdDevice& csd_device() { return *csd_; }
  [[nodiscard]] const csd::CsdDevice& csd_device() const { return *csd_; }
  [[nodiscard]] interconnect::Link& link() { return link_; }
  [[nodiscard]] const interconnect::Link& link() const { return link_; }
  [[nodiscard]] interconnect::DmaEngine& dma() { return dma_; }
  [[nodiscard]] mem::AddressSpace& address_space() { return address_space_; }

  /// Effective bandwidth of a host-side read of stored data: NAND bandwidth
  /// capped by the host link (data crosses both).
  [[nodiscard]] BytesPerSecond storage_to_host_bandwidth() const;

  /// Internal bandwidth a CSD-resident task reads stored data at.
  [[nodiscard]] BytesPerSecond storage_to_csd_bandwidth() const;

  /// Reset all statistics (between benchmark repetitions).
  void reset_stats();

 private:
  SystemConfig config_;
  host::HostCpu host_;
  interconnect::Link link_;
  interconnect::DmaEngine dma_;
  std::unique_ptr<csd::CsdDevice> csd_;
  mem::AddressSpace address_space_;
};

}  // namespace isp::system
