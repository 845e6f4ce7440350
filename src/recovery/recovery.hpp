// Crash-recovery validation: output digests and the crash-point sweep.
//
// The power-loss fault site (fault::Site::PowerLoss) can cut the whole
// device at any virtual-time event boundary; the device recovers — a fixed
// reset downtime, then the storage backend remounts from its durable
// journal/checkpoint — and the engine restarts lost offloaded work.
// This subsystem is how that claim is *checked*: run an application once
// fault-free to fix its reference output, then deterministically crash it
// at every K-th event boundary, recover, and assert that
//   * the recovered run's output digest equals the fault-free digest,
//   * every FTL invariant holds on the remounted device,
//   * the recovery cost stays bounded.
// The sweep knob is the fault plan itself: rate 1 + skip_first k +
// max_faults 1 fires exactly one crash at the (k+1)-th boundary, so the
// sweep is a loop over k with no extra machinery in the engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/exec_mode.hpp"
#include "ir/plan.hpp"
#include "ir/program.hpp"
#include "runtime/engine.hpp"
#include "system/config.hpp"

namespace isp::recovery {

/// Order-stable FNV-1a digest over every line output the run produced:
/// object names and physical payloads, walked in program order.  Two runs
/// computed the same results iff their digests match.
[[nodiscard]] std::uint64_t digest_outputs(const ir::Program& program,
                                           const ir::ObjectStore& store);

/// One crash point of the sweep.
struct CrashPointOutcome {
  std::uint64_t boundary = 0;      // event boundary the crash was armed at
  bool crashed = false;            // false: the run ended before boundary
  std::uint64_t digest = 0;
  bool output_matches = false;     // digest equals the fault-free reference
  bool ftl_invariants_ok = false;  // remounted FTL passed check_invariants()
  std::uint64_t ftl_recoveries = 0;
  Seconds total;                   // end-to-end latency with the crash
  Seconds recovery_overhead;       // downtime + remount + re-staging
};

struct CrashSweepOptions {
  /// Crash at boundaries 0, stride, 2·stride, … .
  std::uint64_t stride = 1;
  /// Safety cap on sweep points (0 = run until the app ends before the
  /// armed boundary, i.e. full coverage).
  std::uint64_t max_points = 0;
  std::uint64_t fault_seed = 1;
  codegen::ExecMode mode = codegen::ExecMode::CompiledNoCopy;
  /// Worker threads for the sweep (0 = one per hardware thread).  Crash
  /// points are independent simulations, so they fan out through
  /// exec::run_batch in submission-order waves; the result is byte-identical
  /// to the serial sweep at any job count.
  unsigned jobs = 1;
  /// Base engine options; the fault plan is overwritten per point.
  runtime::EngineOptions engine;
  /// Platform every point runs on.  The crash sweep exercises whichever
  /// storage backend this selects (CsdConfig::backend), so the same sweep
  /// validates FTL journal replay and ZNS zone recovery.
  system::SystemConfig system = system::SystemConfig::paper_platform();
};

struct CrashSweepResult {
  std::string app;
  std::uint64_t reference_digest = 0;  // fault-free run
  Seconds reference_total;
  std::vector<CrashPointOutcome> points;  // only boundaries that crashed

  [[nodiscard]] bool all_outputs_match() const;
  [[nodiscard]] bool all_invariants_hold() const;
  /// Largest recovery overhead across the sweep.
  [[nodiscard]] Seconds worst_recovery() const;
};

/// Deterministically crash `program` at every stride-th event boundary and
/// recover.  Each point runs on a fresh SystemModel (fresh FTL, fresh
/// queues) so crash points are independent and reproducible.
[[nodiscard]] CrashSweepResult crash_sweep(const ir::Program& program,
                                           const ir::Plan& plan,
                                           const CrashSweepOptions& options);

}  // namespace isp::recovery
