#include "csd/device.hpp"

#include "common/error.hpp"
#include "zns/zns.hpp"

namespace isp::csd {

namespace {

flash::FtlConfig ftl_config(const CsdConfig& config) {
  return flash::FtlConfig{.geometry = config.nand_geometry,
                          .overprovision = config.ftl_overprovision,
                          .journal = config.ftl_journal};
}

zns::ZnsConfig zns_config(const CsdConfig& config) {
  return zns::ZnsConfig{.geometry = config.nand_geometry,
                        .zone_blocks = config.zns_zone_blocks,
                        .max_open_zones = config.zns_max_open_zones,
                        .overprovision = config.ftl_overprovision,
                        .journal = config.ftl_journal};
}

/// The backend constructor's checks, run eagerly so an infeasible config
/// fails where the device is built rather than at its first storage use.
void check_backend_config(const CsdConfig& config) {
  switch (config.backend) {
    case flash::BackendKind::Ftl:
      (void)flash::Ftl::checked_logical_pages(ftl_config(config));
      return;
    case flash::BackendKind::Zns:
      (void)zns::ZnsDevice::checked_logical_pages(zns_config(config));
      return;
  }
  ISP_CHECK(false, "unknown storage backend kind: "
                       << static_cast<unsigned>(config.backend));
}

std::unique_ptr<flash::StorageBackend> make_storage(const CsdConfig& config) {
  switch (config.backend) {
    case flash::BackendKind::Ftl:
      return std::make_unique<flash::Ftl>(ftl_config(config));
    case flash::BackendKind::Zns:
      return std::make_unique<zns::ZnsDevice>(zns_config(config));
  }
  ISP_CHECK(false, "unknown storage backend kind: "
                       << static_cast<unsigned>(config.backend));
  return nullptr;
}

}  // namespace

CsdDevice::CsdDevice(CsdConfig config)
    : config_(config),
      cse_(config.cse),
      flash_(config.nand_geometry, config.nand_timing) {
  check_backend_config(config_);
}

flash::StorageBackend& CsdDevice::storage() {
  if (storage_ == nullptr) storage_ = make_storage(config_);
  return *storage_;
}

Seconds CsdDevice::call_overhead() const {
  return config_.controller.doorbell_to_fetch +
         config_.controller.completion_post;
}

PowerCycleOutcome CsdDevice::power_cycle() {
  PowerCycleOutcome out;
  cse_.reset_counters();  // perf counters are volatile
  flash::StorageBackend& backend = storage();
  if (backend.journaling() && backend.mounted()) {
    out.crash = backend.power_loss();
    out.recovery = backend.recover();
    out.remount_time =
        config_.nand_timing.page_read *
        static_cast<double>(out.recovery.media_reads());
  }
  return out;
}

}  // namespace isp::csd
