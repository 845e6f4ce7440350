#include "runtime/engine.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace isp::runtime {

namespace {

/// Fold a finished run into the observability registry.  Pure bookkeeping
/// after report assembly: nothing here touches virtual time, so an
/// instrumented run's report is bit-for-bit identical to an uninstrumented
/// one (asserted by ServeObs.DisablingObsChangesNothingButOmitsArtifacts in
/// serve_test and gated by `bench/serve_bench --scenario obs`).
void record_run_metrics(obs::MetricsRegistry& m, const ExecutionReport& report,
                        std::uint64_t monitor_lost_updates,
                        const flash::StorageBackend* storage) {
  m.counter("engine.runs").add();
  for (const auto& line : report.lines) {
    m.counter(line.placement == ir::Placement::Csd ? "engine.lines.csd"
                                                   : "engine.lines.host")
        .add();
    m.histogram("engine.line_compute_s").record(line.compute);
  }
  m.counter("engine.migrations").add(report.migrations);
  m.counter("engine.csd_calls").add(report.csd_calls);
  m.counter("engine.status_updates").add(report.status_updates);
  m.counter("engine.power_losses").add(report.power_losses);
  m.counter("monitor.lost_updates").add(monitor_lost_updates);
  m.histogram("engine.total_s").record(report.total);
  if (report.migrations > 0) {
    m.histogram("engine.migration_overhead_s")
        .record(report.migration_overhead);
  }
  if (report.power_losses > 0) {
    m.histogram("engine.recovery_overhead_s").record(report.recovery_overhead);
  }
  for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
    if (report.faults.injected[s] == 0 && report.faults.recovered[s] == 0 &&
        report.faults.exhausted[s] == 0) {
      continue;
    }
    const auto site = std::string(
        fault::to_string(static_cast<fault::Site>(s)));
    m.counter("fault.injected." + site).add(report.faults.injected[s]);
    m.counter("fault.recovered." + site).add(report.faults.recovered[s]);
    m.counter("fault.exhausted." + site).add(report.faults.exhausted[s]);
  }
  m.counter("fault.degradations").add(report.faults.degradations);
  if (report.faults.penalty.value() > 0.0) {
    m.histogram("fault.penalty_s").record(report.faults.penalty);
  }
  if (report.storage.driven && report.storage.reclaim_time.value() > 0.0) {
    m.histogram("engine.reclaim_stall_s").record(report.storage.reclaim_time);
  }
  // Backend stats only when the run actually drove the backend: an idle
  // backend is pristine state, and recording its (kind-specific) zero
  // counters would make a persist-free run's metric schema depend on
  // whether the device happens to be FTL or ZNS.
  if (report.storage.driven) storage->record_metrics(m);
}

using interconnect::TransferKind;

mem::Location side_memory(ir::Placement placement) {
  return placement == ir::Placement::Csd ? mem::Location::DeviceDram
                                         : mem::Location::HostDram;
}

/// Objects produced by some line and never consumed afterwards: the
/// program's results, which must end up in host memory.
std::set<std::string> final_outputs(const ir::Program& program) {
  std::set<std::string> produced;
  for (const auto& line : program.lines()) {
    for (const auto& out : line.outputs) produced.insert(out);
  }
  for (const auto& line : program.lines()) {
    for (const auto& in : line.inputs) produced.erase(in);
  }
  return produced;
}

/// The device's flash and storage backend as one run drives them.  Flash
/// I/O takes the array's fault-aware path (faults cost time, never data).
/// The backend is armed when PowerLoss has a rate or drive_storage is set;
/// with both off none of this runs and backend stats stay untouched.
struct DeviceStorage {
  DeviceStorage(csd::CsdDevice& device, fault::Injector* faults,
                const EngineOptions& options)
      : csd(&device),
        flash(&device.flash_array()),
        injector(faults),
        drive_storage(options.drive_storage),
        power_loss_on(faults != nullptr &&
                      options.fault.rate(fault::Site::PowerLoss) > 0.0 &&
                      device.storage().journaling()),
        backend(power_loss_on || drive_storage ? &device.storage() : nullptr),
        base(backend != nullptr ? backend->counters()
                                : flash::StorageCounters{}) {}

  bool mounted() const { return backend != nullptr && backend->mounted(); }

  /// A crash opportunity: true if the device loses power here.
  [[nodiscard]] bool power_lost() {
    return power_loss_on && injector->draw(fault::Site::PowerLoss);
  }

  /// One flash read (`site` FlashReadEcc) or program (FlashProgram) of
  /// `bytes` from `t0`, its faults charged to `rec`; returns completion.
  SimTime faulted_flash(fault::Site site, SimTime t0, Bytes bytes,
                        LineRecord& rec) {
    const bool read = site == fault::Site::FlashReadEcc;
    const flash::FlashIo io =
        read ? flash->read_io(t0, bytes) : flash->write_io(t0, bytes);
    rec.faults += io.retries;
    rec.fault_penalty += io.fault_penalty;
    if (read) {
      flash->note_read(bytes);
    } else {
      flash->note_write(bytes);
    }
    return io.done;
  }

  /// Mount the storage datasets: their pages become live mappings, charged
  /// as host writes (metadata traffic counts exactly like data does).
  void mount(const ir::ObjectStore& store,
             const std::set<std::string>& datasets) {
    if (!mounted()) return;
    for (const auto& name : datasets) {
      write_pages(store.at(name).virtual_bytes);
    }
  }

  /// Persist `bytes` through the mapping machinery; returns the reclaim
  /// stall the write caused in drive_storage mode, else zero.
  Seconds persist(Bytes bytes) {
    const auto before = backend->counters();
    write_pages(bytes);
    return drive_storage ? reclaim_stall(before) : Seconds::zero();
  }

  /// Write the pages `bytes` cover at a cursor that wraps the logical
  /// space, as one extent per contiguous run (bit for bit the same pages
  /// as one-page extents, by the StorageBackend contract).
  void write_pages(Bytes bytes) {
    const auto page = flash->geometry().page_bytes.count();
    std::uint64_t pages = (bytes.count() + page - 1) / page;
    const std::uint64_t logical = backend->logical_pages();
    while (pages > 0) {
      const flash::Lpn first = wb_cursor % logical;
      const std::uint64_t run = std::min<std::uint64_t>(pages, logical - first);
      backend->write_span(first, run);
      wb_cursor += run;
      pages -= run;
    }
  }

  /// Backend-internal traffic since `before` (reclaim copies, metadata
  /// programs, erases) as a serial NAND stall, like the remount-time model.
  [[nodiscard]] Seconds reclaim_stall(
      const flash::StorageCounters& before) const {
    const auto after = backend->counters();
    const std::uint64_t internal =
        (after.reclaim_pages - before.reclaim_pages) +
        (after.meta_pages - before.meta_pages);
    const std::uint64_t resets = after.resets - before.resets;
    return flash->timing().page_program * static_cast<double>(internal) +
           flash->timing().block_erase * static_cast<double>(resets);
  }

  /// Power-cycle the device at `now` (NVMe reset, CSE state cleared,
  /// backend crash and remount); returns the downtime.
  Seconds apply_power_loss(SimTime now) {
    const auto outcome = csd->power_cycle();
    const Seconds downtime =
        injector->config().power_cycle + outcome.remount_time;
    injector->note_outcome(fault::Site::PowerLoss, now, 1, downtime, false);
    return downtime;
  }

  /// Per-run deltas, so memoised replays of the same dispatch report
  /// identical activity regardless of device history.
  void record(StorageActivity& out) const {
    if (backend == nullptr) return;
    const auto after = backend->counters();
    out.driven = true;
    out.backend = backend->kind();
    out.host_pages = after.host_pages - base.host_pages;
    out.reclaim_pages = after.reclaim_pages - base.reclaim_pages;
    out.meta_pages = after.meta_pages - base.meta_pages;
    out.resets = after.resets - base.resets;
    out.reclaim_events = after.reclaim_events - base.reclaim_events;
    out.write_amplification = out.run_write_amplification();
  }

  csd::CsdDevice* csd;
  flash::FlashArray* flash;
  fault::Injector* injector;
  bool drive_storage;
  bool power_loss_on;
  flash::StorageBackend* backend;
  flash::StorageCounters base;
  std::uint64_t wb_cursor = 0;
};

/// Everything one Engine::run threads through its stages: inputs, system
/// parts, clock, report, residency and migration state, and the fault plan.
/// Constructing it is the set-up stage.
struct RunState {
  RunState(system::SystemModel& system, const ir::Program& program_,
           const ir::Plan& plan_, const codegen::LoweredProgram& lowered_,
           const EngineOptions& options_, ir::ObjectStore* external_store)
      : program(program_),
        plan(plan_),
        lowered(lowered_),
        options(options_),
        host(system.host_cpu()),
        csd(system.csd_device()),
        link(system.link()),
        dma(system.dma()),
        bar_penalty(system.config().bar_access_penalty),
        storage_to_host(system.storage_to_host_bandwidth()),
        // Payloads are copied only for kernels to read.
        local_store(external_store != nullptr ? ir::ObjectStore{}
                    : options.output_sizes == nullptr
                        ? program.make_store()
                        : program.make_metadata_store()),
        store(external_store != nullptr ? *external_store : local_store),
        cse_schedule(options.cse_availability),
        host_schedule(options.host_availability),
        code_distributed(lowered.csd_code_image.count() == 0),
        injector(options.fault.enabled()
                     ? std::optional<fault::Injector>(options.fault)
                     : std::nullopt),
        storage(csd, injector ? &*injector : nullptr, options) {
    for (const auto& d : program.datasets()) {
      if (d.object.starts_on_storage()) dataset_names.insert(d.object.name);
    }
    report.program = program.name();
    report.lines.reserve(program.line_count());
    report.output_sizes.reserve(program.line_count());
    // Over the planned CSD lines: the contention trigger's progress base,
    // and the monitor's predicted instruction rate from the sampling phase.
    const bool have_estimates = plan.estimate.size() == program.line_count();
    double est_instr = 0.0;
    double est_time = 0.0;
    for (std::size_t i = 0; i < program.line_count(); ++i) {
      if (plan.placement[i] != ir::Placement::Csd) continue;
      csd_chunks_total += program.lines()[i].chunks;
      if (!have_estimates) continue;
      est_instr += plan.estimate[i].instructions;
      est_time += plan.estimate[i].ct_device.value();
    }
    if (options.monitoring && est_instr > 0.0 && est_time > 0.0) {
      monitor.emplace(options.monitor, est_instr / est_time);
    }
    // Code generation happens before execution starts (§III-C(d)).
    t += lowered.compile_latency;
    report.compile_overhead = lowered.compile_latency;
    storage.mount(store, dataset_names);
    dma.set_injector(injector ? &*injector : nullptr);
    csd.flash_array().set_injector(injector ? &*injector : nullptr);
  }
  ~RunState() {
    dma.set_injector(nullptr);
    csd.flash_array().set_injector(nullptr);
  }
  RunState(const RunState&) = delete;
  RunState& operator=(const RunState&) = delete;

  const ir::Program& program;
  const ir::Plan& plan;
  const codegen::LoweredProgram& lowered;
  const EngineOptions& options;
  host::HostCpu& host;
  csd::CsdDevice& csd;
  interconnect::Link& link;
  interconnect::DmaEngine& dma;
  const double bar_penalty;
  const BytesPerSecond storage_to_host;
  ir::ObjectStore local_store;
  ir::ObjectStore& store;
  std::set<std::string> dataset_names;  // storage-backed: re-readable
  ExecutionReport report;
  // Copies keep the query cursors private to the run (a shared schedule is
  // not thread-safe; see the run_batch contract in exec/pool.hpp).
  sim::AvailabilitySchedule cse_schedule;
  const sim::AvailabilitySchedule host_schedule;
  bool contention_fired = false;
  std::uint64_t csd_chunks_total = 0;
  std::uint64_t csd_chunks_done = 0;
  std::optional<Monitor> monitor;
  double csd_instructions_cum = 0.0;
  SimTime t = SimTime::zero();
  bool code_distributed;         // the CSD binary is in device memory
  bool migrated = false;         // all remaining CSD lines forced to host
  bool migrate_pending = false;  // decided; takes effect at end of line
  // One deterministic fault plan per run; with every site at rate zero none
  // exists, so fault-free runs take exactly the seed code paths.
  std::optional<fault::Injector> injector;
  DeviceStorage storage;
};

/// One line's walk: where it runs (a break-now migration re-homes the rest
/// of the line to the host), its record, and the work its inputs size.
struct LineWalk {
  LineWalk(const RunState& s, std::size_t index)
      : i(index),
        line(s.program.lines()[index]),
        low(s.lowered.lines[index]),
        placement(s.migrated ? ir::Placement::Host : low.placement) {
    rec.index = static_cast<std::uint32_t>(i);
    rec.name = line.name;
    rec.placement = placement;
    rec.start = s.t;
  }

  std::size_t i;
  const ir::CodeRegion& line;
  const codegen::LoweredLine& low;
  ir::Placement placement;
  LineRecord rec;
  Seconds work_single;  // single-thread host work, mode multiplier applied
  double instructions = 0.0;
  bool aborted_mid_line = false;  // the line gave up its CSD run
  double line_frac_left = 0.0;    // fraction of the line the host resumes
};

/// Advance the clock to `done`, or by `d`, charging the time to `field`.
void advance(RunState& s, Seconds& field, SimTime done) {
  field += done - s.t;
  s.t = done;
}
void spend(RunState& s, Seconds& field, Seconds d) {
  field += d;
  s.t += d;
}

/// Read stored data for a line on `placement`: the CSE reads the NAND; a host
/// read pipelines NAND and link, so the slower stage bounds completion.
void read_stored(RunState& s, LineRecord& rec, Bytes bytes,
                 ir::Placement placement) {
  SimTime done =
      s.storage.faulted_flash(fault::Site::FlashReadEcc, s.t, bytes, rec);
  if (placement == ir::Placement::Host) {
    done = std::max(done, s.dma.transfer(s.t, bytes, TransferKind::RawInput));
  }
  advance(s, rec.access, done);
}

/// Completion of a link move: the analytic link time (times the BAR penalty
/// for data a migration left in device DRAM), or under fault injection the
/// DMA path if it stalls past that bound.
SimTime over_link(RunState& s, Bytes bytes, bool bar_remote,
                  TransferKind kind) {
  Seconds base = s.link.transfer_seconds(bytes);
  if (bar_remote) base = base * s.bar_penalty;
  const SimTime done = s.link.availability().finish_time(s.t, base);
  const SimTime via_dma = s.dma.transfer(s.t, bytes, kind);
  return s.injector ? std::max(done, via_dma) : done;
}

/// Distribute the CSD binary into device memory, once per power cycle.
void distribute_code(RunState& s, LineRecord& rec) {
  if (s.code_distributed) return;
  advance(s, rec.overhead,
          s.dma.transfer(s.t, s.lowered.csd_code_image,
                         TransferKind::CodeImage));
  s.code_distributed = true;
}

/// A whole-device power cycle.  Device DRAM is lost: the code image must be
/// redistributed, and device-resident objects fall back to their host-side
/// shadows, so consumers re-transfer and never recompute.
void lose_power(RunState& s, LineRecord& rec) {
  const Seconds downtime = s.storage.apply_power_loss(s.t);
  ++s.report.power_losses;
  rec.faults += 1;
  spend(s, rec.fault_penalty, downtime);
  s.code_distributed = s.lowered.csd_code_image.count() == 0;
  for (const auto& ln : s.program.lines()) {
    for (const auto& out : ln.outputs) {
      if (!s.store.contains(out)) continue;
      auto& obj = s.store.at(out);
      if (obj.location == mem::Location::DeviceDram) {
        obj.location = mem::Location::HostDram;
        obj.bar_remote = false;
      }
    }
  }
  for (const auto& name : s.dataset_names) {
    auto& obj = s.store.at(name);
    // Storage-backed data needs no shadow: it re-reads from flash.
    if (obj.location == mem::Location::DeviceDram) {
      obj.location = mem::Location::Storage;
    }
  }
}

/// Move the unprocessed `frac` of the line's inputs to the `to` side: stored
/// data re-reads from flash; intermediates go to the device from their host
/// shadows, and to the host through the BAR window at a penalty.
void move_input_tails(RunState& s, LineWalk& w, double frac,
                      ir::Placement to) {
  const bool to_device = to == ir::Placement::Csd;
  for (const auto& name : w.line.inputs) {
    auto& obj = s.store.at(name);
    // Skip what is already on the device, or (to the host) not on it.
    if ((obj.location == mem::Location::DeviceDram) == to_device) continue;
    const Bytes tail{
        static_cast<std::uint64_t>(obj.virtual_bytes.as_double() * frac)};
    if (obj.location == mem::Location::Storage ||
        s.dataset_names.count(name) > 0) {
      read_stored(s, w.rec, tail, to);
    } else {
      advance(s, w.rec.transfer_in,
              to_device ? s.dma.transfer(s.t, tail, TransferKind::Intermediate)
                        : over_link(s, tail, true,
                                    TransferKind::MigrationState));
    }
    obj.location = side_memory(to);
    obj.bar_remote = false;
  }
}

/// Give up the line's CSD run with `chunks_left` chunks unprocessed, for
/// break_now() to hand to the host; `degraded` marks a device fault the
/// retries could not absorb (the degradation ladder's last rung).
void abandon_csd_run(RunState& s, LineWalk& w, std::uint32_t chunks_left,
                     bool degraded) {
  if (degraded) s.injector->note_degradation();
  w.aborted_mid_line = true;
  w.line_frac_left = static_cast<double>(chunks_left) /
                     static_cast<double>(w.line.chunks);
}

/// Commit migrating the remaining CSD work: regenerate host code, save live
/// variables, and mark the device products of lines before `through` as
/// remote data the host reaches through the BAR.  Returns the start time.
SimTime commit_migration(RunState& s, std::size_t through) {
  s.migrated = true;
  ++s.report.migrations;
  const SimTime migration_start = s.t;
  s.t += s.options.overhead.compile_latency;
  s.t = s.dma.transfer(s.t, s.options.migration_state_bytes,
                       TransferKind::MigrationState);
  for (std::size_t j = 0; j < through; ++j) {
    for (const auto& out : s.program.lines()[j].outputs) {
      auto& obj = s.store.at(out);
      if (obj.location == mem::Location::DeviceDram) obj.bar_remote = true;
    }
  }
  return migration_start;
}

// ---- Per-line stages -------------------------------------------------------

/// 1. Open line `i`.  Every line start is a crash opportunity (host lines too:
/// the whole device power-cycles and the next storage access waits for it).
LineWalk begin_line(RunState& s, std::size_t i) {
  LineWalk w(s, i);
  if (s.storage.power_lost()) {
    const SimTime crash_start = s.t;
    lose_power(s, w.rec);
    s.report.recovery_overhead += s.t - crash_start;
  }
  return w;
}

/// 2. Input residency: stored data is read and cached near the consumer,
/// the other side's objects cross the link.  The inputs size the work.
void read_inputs(RunState& s, LineWalk& w) {
  const mem::Location local = side_memory(w.placement);
  for (const auto& name : w.line.inputs) {
    auto& obj = s.store.at(name);
    w.rec.in_bytes += obj.virtual_bytes;
    if (obj.location == mem::Location::Storage) {
      w.rec.storage_bytes += obj.virtual_bytes;
      read_stored(s, w.rec, obj.virtual_bytes, w.placement);
      obj.location = local;
    } else if (obj.location != local) {
      const auto kind = obj.bar_remote ? TransferKind::MigrationState
                        : local == mem::Location::HostDram
                            ? TransferKind::ProcessedOutput
                            : TransferKind::Intermediate;
      advance(s, w.rec.transfer_in,
              over_link(s, obj.virtual_bytes, obj.bar_remote, kind));
      obj.location = local;
      obj.bar_remote = false;
    }
  }
  const double n_elems = w.line.elems_for(w.rec.in_bytes);
  w.work_single = s.host.work_seconds(w.line.cost.cycles_for(n_elems)) *
                  s.options.overhead.compute_multiplier(s.lowered.mode);
  w.instructions = w.line.cost.instructions_for(n_elems);
}

/// 3. Control (code image, call-queue invocation, dispatch), then the
/// marshalling of the inputs.
void control(RunState& s, LineWalk& w) {
  if (w.placement == ir::Placement::Csd) {
    distribute_code(s, w.rec);
    if (w.low.enters_csd_group && !s.migrated) {
      // Enqueue on the call queue; the CSE fetches when free.
      ++s.report.csd_calls;
      s.csd.call_queue().submit(nvme::CallEntry{
          .function_id = s.report.csd_calls,
          .first_line = static_cast<std::uint32_t>(w.i),
          .arg_block = 0});
      (void)s.csd.call_queue().fetch();  // firmware picks it up immediately
      spend(s, w.rec.overhead, s.csd.call_overhead());
    }
  }
  spend(s, w.rec.overhead,
        s.options.overhead.dispatch_overhead(s.lowered.mode));
  if (w.low.marshalling) {
    spend(s, w.rec.marshal,
          w.rec.in_bytes / s.options.overhead.marshal_bandwidth);
  }
}

/// 4. Compute `work` on the host through its availability schedule.
void compute_on_host(RunState& s, LineWalk& w, Seconds work) {
  const Seconds wall = s.host.compute_seconds(work, w.line.host_threads);
  const SimTime done = s.host_schedule.finish_time(s.t, wall);
  ISP_CHECK(done < SimTime::infinity(),
            "host availability starves line '" << w.line.name << "'");
  advance(s, w.rec.compute, done);
}

/// A power cut at chunk boundary `c`: restart from the last completed chunk
/// when the status stream recorded progress, else from the top.  Returns
/// false when the cut used up the retry budget and the line gives up.
bool restart_after_power_loss(RunState& s, LineWalk& w, std::uint32_t& c,
                              bool last_attempt, bool post_status) {
  const SimTime crash_start = s.t;
  lose_power(s, w.rec);
  const bool give_up = last_attempt && s.options.migration;
  if (give_up) {
    abandon_csd_run(s, w, w.line.chunks - c, true);
  } else {
    if (!post_status) c = 0;  // no durable progress record: from the top
    // Re-stage the code and the inputs' tail, then re-invoke.
    distribute_code(s, w.rec);
    move_input_tails(s, w,
                     static_cast<double>(w.line.chunks - c) /
                         static_cast<double>(w.line.chunks),
                     ir::Placement::Csd);
    spend(s, w.rec.overhead, s.csd.call_overhead());
  }
  s.report.recovery_overhead += s.t - crash_start;
  return !give_up;
}

/// A CSE core crash restarts the core (reset plus half a chunk of lost
/// progress) under the retry policy.  Returns true when retries ran out and
/// the line gave up its CSD run at chunk `c`.
bool cse_gives_up(RunState& s, LineWalk& w, std::uint32_t c,
                  Seconds chunk_wall) {
  if (!s.injector) return false;
  const auto op =
      s.injector->attempt(fault::Site::CseCrash, s.t,
                          s.options.fault.cse_restart + chunk_wall * 0.5);
  if (op.faults > 0) {
    w.rec.faults += op.faults;
    spend(s, w.rec.fault_penalty, op.penalty);
  }
  if (!op.exhausted || !s.options.migration) return false;
  abandon_csd_run(s, w, w.line.chunks - c, true);
  return true;
}

/// Patched status-update code (§III-C(b)), absent from conventional static
/// frameworks (monitoring off).  Returns true if the update was lost.
bool post_status(RunState& s, LineWalk& w, std::uint32_t c) {
  const bool lost =
      s.injector && s.injector->lost(fault::Site::StatusLoss, s.t);
  if (lost) {
    // Cumulative counts make the stream self-healing.
    w.rec.faults += 1;
    if (s.monitor) s.monitor->note_lost_update();
  } else {
    s.csd.status_queue().post(nvme::StatusEntry{
        .line = static_cast<std::uint32_t>(w.i),
        .chunk = c,
        .chunks_total = w.line.chunks,
        .instructions_retired = s.csd_instructions_cum,
        .timestamp = s.t,
        .high_priority_request = false});
    ++s.report.status_updates;
  }
  spend(s, w.rec.overhead, Seconds{2e-7});
  return lost;
}

/// Feed the monitor the update after chunk `c` and price migration: break
/// the line here and let the host resume the rest, or, when the line just
/// finished, migrate between lines.  A yes sets migrate_pending.
void consider_migration(RunState& s, LineWalk& w, std::uint32_t c) {
  const bool anomaly = s.monitor->observe(s.t, s.csd_instructions_cum);
  if (!anomaly || !s.options.migration || s.migrated || s.migrate_pending) {
    return;
  }
  const auto& estimate = s.plan.estimate;
  const auto bandwidth = s.link.effective_bandwidth();
  // Work strictly after this line, common to both options.
  double instr_rem = 0.0;
  Seconds host_rem;
  Seconds movement;
  for (std::size_t j = w.i + 1; j < s.program.line_count(); ++j) {
    if (s.plan.placement[j] != ir::Placement::Csd) continue;
    instr_rem += estimate[j].instructions;
    host_rem += estimate[j].ct_host;
    movement += estimate[j].storage_in / s.storage_to_host;
  }
  movement += s.options.migration_state_bytes / bandwidth;
  const std::uint32_t chunks_left = w.line.chunks - (c + 1);
  if (chunks_left > 0) {
    // Break option: per-chunk progress and the line's operands live in
    // shared mutable memory (§III-C(c)), so only the unprocessed tail moves.
    const double f = static_cast<double>(chunks_left) /
                     static_cast<double>(w.line.chunks);
    instr_rem += estimate[w.i].instructions * f;
    host_rem += estimate[w.i].ct_host * f;
    movement +=
        ((estimate[w.i].storage_in + estimate[w.i].d_in) / bandwidth) * f;
  } else if (w.i + 1 < s.program.line_count() &&
             s.plan.placement[w.i + 1] == ir::Placement::Csd) {
    movement += estimate[w.i + 1].d_in / bandwidth;
  }
  if (!(instr_rem > 0.0)) return;  // nothing left to move
  const auto advice = s.monitor->advise(instr_rem, host_rem, movement,
                                        s.options.overhead.compile_latency);
  if (!advice.migrate) return;
  s.migrate_pending = true;
  if (chunks_left > 0) abandon_csd_run(s, w, chunks_left, false);
  ISP_LOG_DEBUG("migration decided during line '"
                << w.line.name << "' (csd remaining "
                << advice.remaining_on_csd.value() << " s vs migration cost "
                << advice.cost_of_migration.value() << " s)");
}

/// 4. Compute on the CSD in chunks.  Each chunk boundary is a crash
/// opportunity, each chunk may crash its core, and each posts a status
/// update to the monitor.  Ends early when the line gives up the device.
void run_csd_chunks(RunState& s, LineWalk& w) {
  const auto& line = w.line;
  const auto& estimate = s.plan.estimate;
  if (s.monitor && estimate[w.i].ct_device.value() > 0.0) {
    s.monitor->begin_line(estimate[w.i].instructions /
                          estimate[w.i].ct_device.value());
  }
  // In-order CSE cores stall once the working set outgrows the device
  // caches; stalls stretch time without retiring instructions.
  auto& cse = s.csd.cse();
  const Seconds wall_full =
      cse.compute_seconds(w.work_single, line.csd_threads) *
      line.cost.csd_stall_factor(line.elems_for(w.rec.in_bytes));
  const Seconds chunk_wall = wall_full / static_cast<double>(line.chunks);
  const double chunk_instr =
      w.instructions / static_cast<double>(line.chunks);
  const double chunk_cycles = chunk_wall.value() * cse.config().clock.value();
  const bool status = w.low.status_updates && s.options.monitoring;
  const std::uint32_t max_crashes = s.options.fault.retry.max_attempts;
  const auto& contention = s.options.contention;
  const SimTime compute_start = s.t;
  std::uint32_t crashes = 0;
  for (std::uint32_t c = 0; c < line.chunks; ++c) {
    if (crashes < max_crashes && s.storage.power_lost()) {
      ++crashes;
      if (!restart_after_power_loss(s, w, c, crashes >= max_crashes, status)) {
        break;
      }
    }
    if (cse_gives_up(s, w, c, chunk_wall)) break;
    const SimTime done = s.cse_schedule.finish_time(s.t, chunk_wall);
    ISP_CHECK(done < SimTime::infinity(),
              "CSE availability starves line '" << line.name << "'");
    s.t = done;
    s.csd_instructions_cum += chunk_instr;
    cse.retire(chunk_instr, chunk_cycles);
    ++s.csd_chunks_done;
    const bool update_lost = status && post_status(s, w, c);
    // Contention trigger (Figure 5 methodology).
    if (contention.enabled && !s.contention_fired && s.csd_chunks_total > 0 &&
        static_cast<double>(s.csd_chunks_done) /
                static_cast<double>(s.csd_chunks_total) >=
            contention.at_csd_progress) {
      s.contention_fired = true;
      s.cse_schedule.add_step(s.t, contention.availability);
      // About to be starved, the device raises a high-priority request
      // (§III-D case 1).
      if (s.monitor && contention.availability <= 0.15) {
        s.monitor->raise_high_priority();
      }
    }
    if (s.monitor && w.low.status_updates && !update_lost) {
      consider_migration(s, w, c);
    }
    if (w.aborted_mid_line) break;
  }
  const Seconds elapsed = s.t - compute_start;
  w.rec.compute += elapsed;
  if (elapsed.value() > 0.0) {
    w.rec.observed_rate = w.instructions / elapsed.value();
  }
}

/// 5. Break-now migration (§III-D): live state is in shared mutable memory, so
/// the host resumes the unprocessed fraction of the line.
void break_now(RunState& s, LineWalk& w) {
  s.migrate_pending = false;
  const SimTime migration_start = commit_migration(s, w.i);
  move_input_tails(s, w, w.line_frac_left, ir::Placement::Host);
  s.report.migration_overhead += s.t - migration_start;
  ISP_LOG_INFO("broke '" << w.line.name
                         << "' on the CSD; host resumes the remaining "
                         << w.line_frac_left * 100.0 << "%");
  w.placement = ir::Placement::Host;
  w.rec.placement = w.placement;
  compute_on_host(s, w, w.work_single * w.line_frac_left);
}

void place_output(LineWalk& w, std::vector<Bytes>& sizes,
                  mem::DataObject& obj) {
  obj.location = side_memory(w.placement);
  w.rec.out_bytes += obj.virtual_bytes;
  sizes.push_back(obj.virtual_bytes);
}

/// 6. Outputs from the kernel, a kernel run's recorded sizes, or (no
/// kernel) the plan's estimates; then their marshalling.
void produce_outputs(RunState& s, LineWalk& w) {
  const auto& line = w.line;
  auto& sizes = s.report.output_sizes.emplace_back();
  if (line.kernel && s.options.output_sizes != nullptr) {
    // Replay: each output is created or updated exactly as the kernel's
    // first write would, then sized from the kernel run's record.
    const auto& replay = (*s.options.output_sizes)[w.i];
    ISP_CHECK(replay.size() == line.outputs.size(),
              "recorded output sizes do not match line '" << line.name
                                                           << "'");
    for (std::size_t k = 0; k < line.outputs.size(); ++k) {
      auto& obj = s.store.ensure(line.outputs[k]);
      obj.virtual_bytes = replay[k];
      place_output(w, sizes, obj);
    }
  } else if (line.kernel) {
    ir::KernelCtx ctx(s.store, line.inputs, line.outputs,
                      s.program.virtual_scale());
    line.kernel(ctx);
    for (const auto& name : line.outputs) {
      auto& obj = s.store.at(name);
      obj.sync_virtual_size(s.program.virtual_scale());
      place_output(w, sizes, obj);
    }
  } else {
    for (const auto& name : line.outputs) {
      mem::DataObject obj;
      obj.name = name;
      obj.virtual_bytes = s.plan.estimate[w.i].d_out;
      place_output(w, sizes, obj);
      s.store.emplace(std::move(obj));
    }
  }
  if (w.low.marshalling && w.rec.out_bytes.count() > 0) {
    spend(s, w.rec.marshal,
          w.rec.out_bytes / s.options.overhead.marshal_bandwidth);
  }
}

/// 7. Result write-back: a CSD line programs the NAND; a host line's
/// results also cross the link (pipelined, the slower bounds completion).
/// A mounted backend maps the pages, and any reclaim stalls the device here.
void write_back(RunState& s, LineWalk& w) {
  const Bytes out = w.rec.out_bytes;
  if (!w.line.writes_storage || out.count() == 0) return;
  if (w.placement == ir::Placement::Csd) {
    advance(s, w.rec.access,
            s.storage.faulted_flash(fault::Site::FlashProgram, s.t, out,
                                    w.rec));
  } else {
    const SimTime via_link =
        s.dma.transfer(s.t, out, TransferKind::Intermediate);
    const SimTime via_flash =
        s.storage.faulted_flash(fault::Site::FlashProgram, s.t, out, w.rec);
    advance(s, w.rec.access, std::max(via_link, via_flash));
  }
  if (!s.storage.mounted()) return;
  const Seconds stall = s.storage.persist(out);
  if (stall.value() > 0.0) {
    s.report.storage.reclaim_time += stall;
    spend(s, w.rec.access, stall);
  }
}

/// 8. Between-lines migration (§III-D): a decision taken on the line's last
/// chunk takes effect now, if CSD work remains.
void migrate_between_lines(RunState& s, const LineWalk& w) {
  if (!s.migrate_pending || s.migrated) return;
  const auto& placement = s.plan.placement;
  if (std::find(placement.begin() + static_cast<std::ptrdiff_t>(w.i) + 1,
                placement.end(), ir::Placement::Csd) != placement.end()) {
    const SimTime migration_start = commit_migration(s, w.i + 1);
    s.report.migration_overhead += s.t - migration_start;
    ISP_LOG_INFO("migrated remaining lines to host after '" << w.line.name
                                                            << "'");
  }
  s.migrate_pending = false;
}

void end_line(RunState& s, LineWalk& w) {
  w.rec.end = s.t;
  s.report.lines.push_back(std::move(w.rec));
}

// ---- Run-level stages ------------------------------------------------------

/// Program results must reach host memory.
void results_to_host(RunState& s) {
  for (const auto& name : final_outputs(s.program)) {
    if (!s.store.contains(name)) continue;
    auto& obj = s.store.at(name);
    if (obj.location != mem::Location::DeviceDram) continue;
    s.t = over_link(s, obj.virtual_bytes, obj.bar_remote,
                    TransferKind::ProcessedOutput);
    obj.location = mem::Location::HostDram;
    obj.bar_remote = false;
  }
}

ExecutionReport finish(RunState& s) {
  s.report.total = s.t - SimTime::zero();
  s.report.dma = s.dma.stats();
  if (s.injector) {
    s.report.faults = s.injector->summary();
    s.report.fault_records = s.injector->records();
  }
  s.storage.record(s.report.storage);
  if (s.options.metrics != nullptr) {
    record_run_metrics(*s.options.metrics, s.report,
                       s.monitor ? s.monitor->lost_updates() : 0,
                       s.storage.backend);
  }
  return std::move(s.report);
}

void check_inputs(const ir::Program& program, const ir::Plan& plan,
                  const codegen::LoweredProgram& lowered,
                  const EngineOptions& options) {
  ISP_CHECK(plan.placement.size() == program.line_count(),
            "plan does not match program");
  ISP_CHECK(lowered.lines.size() == program.line_count(),
            "lowered program does not match program");
  ISP_CHECK(options.output_sizes == nullptr ||
                options.output_sizes->size() == program.line_count(),
            "recorded output sizes do not match program");
  const bool have_estimates = plan.estimate.size() == program.line_count();
  for (const auto& line : program.lines()) {
    ISP_CHECK(line.kernel || line.outputs.empty() || have_estimates,
              "line '" << line.name
                       << "' has no kernel, so its outputs are sized from "
                          "plan estimates, and the plan carries none");
  }
}

}  // namespace

ExecutionReport Engine::run(const ir::Program& program, const ir::Plan& plan,
                            const codegen::LoweredProgram& lowered,
                            const EngineOptions& options,
                            ir::ObjectStore* store) {
  check_inputs(program, plan, lowered, options);
  system_->reset_stats();
  RunState s(*system_, program, plan, lowered, options, store);
  for (std::size_t i = 0; i < program.line_count(); ++i) {
    LineWalk w = begin_line(s, i);
    read_inputs(s, w);
    control(s, w);
    if (w.placement == ir::Placement::Host) {
      compute_on_host(s, w, w.work_single);
    } else {
      run_csd_chunks(s, w);
      if (w.aborted_mid_line) break_now(s, w);
    }
    produce_outputs(s, w);
    write_back(s, w);
    migrate_between_lines(s, w);
    end_line(s, w);
  }
  results_to_host(s);
  return finish(s);
}

ExecutionReport run_program(system::SystemModel& system,
                            const ir::Program& program, const ir::Plan& plan,
                            codegen::ExecMode mode,
                            const EngineOptions& options,
                            ir::ObjectStore* store) {
  const auto lowered = codegen::lower(program, plan, system.address_space(),
                                      mode, {}, options.overhead);
  Engine engine(system);
  return engine.run(program, plan, lowered, options, store);
}

}  // namespace isp::runtime
