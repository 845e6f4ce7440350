// Deterministic fault injection across the device stack.
//
// Real CSDs fail in ways the happy-path substrate never exercised: NVMe
// commands time out, NAND reads return uncorrectable ECC errors, programs
// fail transiently, DMA transfers stall, CSE cores crash mid-chunk, and
// status updates get lost on the way to the host.  FaultPlan turns each of
// those *named sites* into a seed-deterministic Bernoulli process: the n-th
// opportunity at a site either passes or faults as a pure function of
// (seed, site, n), so a given seed replays the exact same fault schedule
// regardless of wall-clock, thread timing, or unrelated code changes.
//
// Recovery is layered on top by Injector::attempt(): bounded retry with
// exponential backoff in *virtual* time, then a site-specific escalation
// (typed isp::Status error, ECC/RAID reconstruction penalty, link reset, or
// migration back to the host — the degradation ladder in
// docs/fault-model.md).  With every site at rate 0 the plan is inert: no
// RNG draws, no added virtual time, bit-for-bit identical runs.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"

namespace isp::fault {

/// Named injection sites, one per device-stack layer.
enum class Site : std::uint8_t {
  // Command timeout/abort in the NVMe controller.  The engine charges the
  // control plane analytically and never draws this site; only the
  // event-driven controller oracle (tests/oracle/) does.  It keeps index 0
  // because each site's fault stream is seeded by its index.
  NvmeCommand = 0,
  FlashReadEcc,     // page read returns an ECC error
  FlashProgram,     // transient program/erase failure
  DmaTransfer,      // DMA transfer stall on the host link
  CseCrash,         // CSE core crash mid-chunk
  StatusLoss,       // status update lost before the monitor sees it
  PowerLoss,        // whole-device power cut at an event boundary
  DeviceFailure,    // permanent whole-device death (fleet-level, serve/)
  kCount
};

inline constexpr std::size_t kSiteCount = static_cast<std::size_t>(Site::kCount);

[[nodiscard]] std::string_view to_string(Site site);

/// Bounded retry with exponential backoff (in virtual time).
struct RetryPolicy {
  /// Total tries for one operation, including the first.
  std::uint32_t max_attempts = 4;
  Seconds initial_backoff = Seconds{10e-6};
  double backoff_multiplier = 2.0;

  /// Backoff slept before retry `retry` (1-based): initial * mult^(retry-1).
  [[nodiscard]] Seconds backoff_before(std::uint32_t retry) const;
};

struct SiteConfig {
  /// Bernoulli fault probability per opportunity, in [0, 1].
  double rate = 0.0;
  /// Opportunities at this site that never fault — lets tests place the
  /// first fault at an exact chunk/command/page deterministically.
  std::uint64_t skip_first = 0;
  /// Cap on faults this site may fire over a run (0 = unlimited).  With
  /// rate 1, skip_first k and max_faults 1 the site fires exactly once, at
  /// the (k+1)-th opportunity — the crash-point sweep's one knob.
  std::uint64_t max_faults = 0;
};

struct FaultConfig {
  std::uint64_t seed = 0;
  std::array<SiteConfig, kSiteCount> sites{};
  RetryPolicy retry;
  /// Core restart cost after a CSE crash (firmware re-dispatch).
  Seconds cse_restart = Seconds{200e-6};
  /// Escalation when an uncorrectable read exhausts retries: device-side
  /// RAID/parity reconstruction of the page.
  Seconds ecc_recovery = Seconds{2e-3};
  /// Escalation when a program/erase keeps failing: retire the block and
  /// re-program into a fresh one.
  Seconds block_retire = Seconds{5e-3};
  /// Escalation when the DMA engine exhausts retries: reset the link.
  Seconds link_reset = Seconds{1e-3};
  /// Whole-device power cycle after a PowerLoss: controller reset plus
  /// firmware reboot, before the FTL remount (journal/checkpoint replay)
  /// adds its media-read cost on top.
  Seconds power_cycle = Seconds{10e-3};

  void set_rate(Site site, double rate);
  /// Set every *point-fault* site to `rate`.  PowerLoss and DeviceFailure
  /// are deliberately excluded: PowerLoss is a whole-device event with its
  /// own recovery machinery, and DeviceFailure is a fleet-level permanent
  /// death (its rate is a per-virtual-second hazard the serving loop turns
  /// into a first-arrival instant, not a per-opportunity Bernoulli).  Both
  /// are enabled explicitly via set_rate(site, r).  NvmeCommand is set too,
  /// but engine runs never draw it: that rate reaches only the controller
  /// oracle under tests/oracle/.
  void set_rate_all(double rate);
  [[nodiscard]] double rate(Site site) const;
  /// True if any site can fire (a rate above zero).
  [[nodiscard]] bool enabled() const;
};

/// Seed-deterministic fault schedule: fires(site) is a pure function of
/// (seed, site, per-site opportunity counter).
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(FaultConfig config);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const FaultConfig& config() const { return config_; }

  /// Consume the next opportunity at `site`; true if it faults.
  bool fires(Site site);

  /// Opportunities consumed so far at `site`.
  [[nodiscard]] std::uint64_t opportunities(Site site) const {
    return counters_[static_cast<std::size_t>(site)];
  }

 private:
  FaultConfig config_;
  bool enabled_ = false;
  std::array<std::uint64_t, kSiteCount> counters_{};
  std::array<std::uint64_t, kSiteCount> fired_{};    // faults fired per site
  std::array<std::uint64_t, kSiteCount> streams_{};  // per-site hash stream
};

/// One fault-handling episode at a site (an operation's worth of retries).
struct FaultRecord {
  Site site = Site::NvmeCommand;
  SimTime time;                 // virtual time the operation started
  std::uint32_t faults = 0;     // injected faults observed by this operation
  bool exhausted = false;       // retries ran out; escalation applied
  Seconds penalty;              // virtual time added by retries + escalation
};

/// Aggregate counters for the ExecutionReport / trace export.
struct FaultSummary {
  std::array<std::uint64_t, kSiteCount> injected{};
  std::array<std::uint64_t, kSiteCount> recovered{};  // ops healed by retry
  std::array<std::uint64_t, kSiteCount> exhausted{};  // ops that escalated
  Seconds penalty;              // total virtual time added by fault handling
  std::uint32_t degradations = 0;  // migrations forced by device faults

  [[nodiscard]] std::uint64_t total_injected() const;
  [[nodiscard]] std::uint64_t total_exhausted() const;
};

/// Outcome of one bounded-retry operation.
struct OpResult {
  std::uint32_t faults = 0;  // faulted attempts (0 = clean first try)
  Seconds penalty;           // retry costs + backoff + any escalation
  bool exhausted = false;    // every attempt faulted; escalation applied
};

/// FaultPlan + RetryPolicy + bookkeeping: the one handle device components
/// take.  A null/absent injector (or an all-zero config) costs nothing.
class Injector {
 public:
  Injector() = default;
  explicit Injector(FaultConfig config) : plan_(config) {}

  [[nodiscard]] bool enabled() const { return plan_.enabled(); }
  [[nodiscard]] const FaultConfig& config() const { return plan_.config(); }

  /// Run one operation at `site` under the retry policy.  Each faulted
  /// attempt charges `retry_cost` plus the exponential backoff; if every
  /// attempt faults, `escalation_cost` is charged on top and the result is
  /// marked exhausted.  Deterministic in (config.seed, site, call order).
  OpResult attempt(Site site, SimTime now, Seconds retry_cost,
                   Seconds escalation_cost = Seconds::zero());

  /// Single un-retried opportunity (status-update loss, per-try command
  /// drop): true if this event is lost.  Records the injection.
  bool lost(Site site, SimTime now);

  /// Raw deterministic draw with no bookkeeping, for callers that run their
  /// own recovery (the engine's power cycle; the controller oracle's
  /// timeout/requeue path) and record the episode via note_outcome() once
  /// its outcome is known.
  [[nodiscard]] bool draw(Site site) {
    return plan_.enabled() && plan_.fires(site);
  }

  /// Record an op outcome decided by the caller (a power cycle's downtime;
  /// the controller oracle's timeout/requeue episode), so the books match
  /// those of attempt().
  void note_outcome(Site site, SimTime now, std::uint32_t faults,
                    Seconds penalty, bool exhausted);

  /// A device fault forced the runtime to pull work back to the host.
  void note_degradation() { ++summary_.degradations; }

  [[nodiscard]] const FaultSummary& summary() const { return summary_; }
  [[nodiscard]] const std::vector<FaultRecord>& records() const {
    return records_;
  }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  /// Bound on the per-run record log; counters keep counting past it.
  static constexpr std::size_t kMaxRecords = 4096;

  FaultPlan plan_;
  FaultSummary summary_;
  std::vector<FaultRecord> records_;
};

}  // namespace isp::fault
