#include "system/model.hpp"

#include <algorithm>

namespace isp::system {

SystemModel::SystemModel(SystemConfig config)
    : config_(config),
      host_(config.host),
      link_(config.link),
      dma_(link_),
      csd_(std::make_unique<csd::CsdDevice>(config.csd)),
      address_space_(mem::AddressSpace::standard_layout(
          config.host_dram, config.csd.device_dram)) {}

BytesPerSecond SystemModel::storage_to_host_bandwidth() const {
  return BytesPerSecond{std::min(link_.effective_bandwidth().value(),
                                 csd_->flash_array().read_bandwidth().value())};
}

BytesPerSecond SystemModel::storage_to_csd_bandwidth() const {
  return csd_->flash_array().read_bandwidth();
}

void SystemModel::reset_stats() {
  link_.reset_stats();
  dma_.reset_stats();
  csd_->flash_array().reset_stats();
  csd_->cse().reset_counters();
}

}  // namespace isp::system
