#include "serve/observe.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/error.hpp"

namespace isp::serve {

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string lane_name(std::size_t lane, std::size_t fleet_size) {
  if (lane < fleet_size) return "csd" + std::to_string(lane);
  return "host" + std::to_string(lane - fleet_size);
}

/// Strip one trailing newline so components embed cleanly.
std::string chomp(std::string s) {
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

}  // namespace

obs::Timeline to_fleet_timeline(const ServeReport& report) {
  obs::Timeline timeline;

  for (const auto& o : report.outcomes) {
    const std::string job = "job" + std::to_string(o.id);
    if (o.rejected || o.deadline_rejected) {
      timeline.instant("admission",
                       job + (o.rejected ? " rejected" : " deadline-rejected"),
                       o.arrival.seconds(),
                       {{"tenant", std::to_string(o.tenant)}});
      continue;
    }
    const std::string queue_track =
        "tenant" + std::to_string(o.tenant) + " queue";

    // Per-attempt history: each attempt killed by a device death shows as
    // its own queue wait plus a [lost] span on the dying lane.  A job with
    // no lost attempts reduces exactly to the pre-failure-domain shape (one
    // wait, one placement, one service span) — obs_test pins that schema.
    SimTime wait_from = o.arrival;
    for (std::size_t a = 0; a < o.lost_attempts.size(); ++a) {
      const auto& lost = o.lost_attempts[a];
      const std::string lost_lane = lane_name(lost.lane, report.fleet_size);
      timeline.complete(queue_track, job + " [queue-wait]",
                        wait_from.seconds(), (lost.start - wait_from).value());
      timeline.complete(lost_lane, job + " [lost]", lost.start.seconds(),
                        (lost.end - lost.start).value(),
                        {{"tenant", std::to_string(o.tenant)},
                         {"attempt", std::to_string(a)}});
      wait_from = lost.end;
    }
    if (!o.completed()) {
      // Deadline expired in queue, or the retry budget ran dry: close the
      // final wait gap (if any) and mark the terminal instant.
      if (o.resolved > wait_from) {
        timeline.complete(queue_track, job + " [queue-wait]",
                          wait_from.seconds(),
                          (o.resolved - wait_from).value());
      }
      timeline.instant(
          queue_track,
          job + (o.deadline_missed ? " deadline-missed" : " retry-exhausted"),
          o.resolved.seconds(),
          {{"tenant", std::to_string(o.tenant)},
           {"retries", std::to_string(o.retries)}});
      continue;
    }
    timeline.complete(queue_track, job + " [queue-wait]",
                      wait_from.seconds(), (o.start - wait_from).value());

    const std::string lane =
        lane_name(static_cast<std::size_t>(o.lane), report.fleet_size);
    timeline.instant(lane, job + " [placement]", o.start.seconds(),
                     {{"eq1_profit_s", num(o.eq1_profit.value())},
                      {"on_host", o.on_host ? "true" : "false"},
                      {"class", std::to_string(o.job_class)}});

    // Outer job span with exec / migration / recovery sub-slices nested
    // inside it (sub-slice durations partition the measured service time;
    // obs_test asserts the sum).
    timeline.complete(
        lane, job, o.start.seconds(), o.service.value(),
        {{"tenant", std::to_string(o.tenant)},
         {"class", std::to_string(o.job_class)},
         {"migrations", std::to_string(o.migrations)},
         {"power_losses", std::to_string(o.power_losses)},
         {"faults", std::to_string(o.faults)}});
    const double overheads =
        o.migration_overhead.value() + o.recovery_overhead.value();
    const double exec = std::max(0.0, o.service.value() - overheads);
    double cursor = o.start.seconds();
    timeline.complete(lane, job + " [exec]", cursor, exec);
    cursor += exec;
    timeline.complete(lane, job + " [migration]", cursor,
                      o.migration_overhead.value());
    cursor += o.migration_overhead.value();
    timeline.complete(lane, job + " [recovery]", cursor,
                      o.recovery_overhead.value());

    // Backend reclaim stall absorbed inside the job's service, on its own
    // track so the lane's exec/migration/recovery partition is untouched
    // (persist-free jobs emit nothing here — the clean-run schema holds).
    if (o.reclaim_time.value() > 0.0) {
      timeline.complete(
          "storage", job + " [reclaim]", o.start.seconds(),
          o.reclaim_time.value(),
          {{"lane", "\"" + lane + "\""},
           {"internal_pages", std::to_string(o.storage_internal_pages)}});
    }

    for (const auto& f : o.fault_events) {
      timeline.instant("faults",
                       "fault:" + std::string(fault::to_string(f.site)) +
                           (f.exhausted ? " (exhausted)" : ""),
                       f.time.seconds(),
                       {{"job", std::to_string(o.id)},
                        {"penalty_us", num(f.penalty.value() * 1e6)}});
    }
  }

  // Failure-domain instants: permanent device deaths and breaker state
  // transitions, one per lane, in lane order.  A healthy run emits none of
  // these, so the clean-run event schema is untouched.
  for (std::size_t lane = 0;
       lane < report.fleet_size && lane < report.lanes.size(); ++lane) {
    const auto& ls = report.lanes[lane];
    if (ls.died_at == SimTime::infinity()) continue;
    timeline.instant(lane_name(lane, report.fleet_size), "device-failure",
                     ls.died_at.seconds(),
                     {{"lost_jobs", std::to_string(ls.lost_jobs)}});
  }
  for (std::size_t lane = 0; lane < report.breaker_transitions.size();
       ++lane) {
    for (const auto& tr : report.breaker_transitions[lane]) {
      timeline.instant(lane_name(lane, report.fleet_size),
                       "breaker " + std::string(to_string(tr.from)) + "->" +
                           std::string(to_string(tr.to)),
                       tr.time.seconds(), {{"score", num(tr.score)}});
    }
  }
  return timeline;
}

std::string to_fleet_trace(const ServeReport& report) {
  return to_fleet_timeline(report).to_json();
}

obs::SnapshotSeries build_snapshots(const ServeReport& report,
                                    const ObsOptions& options) {
  ISP_CHECK(options.snapshot_interval.value() > 0.0,
            "snapshot interval must be positive");
  ISP_CHECK(options.max_snapshots >= 1, "need at least one snapshot");
  // `rejected` counts both Overloaded and DeadlineExceeded admission
  // rejections (the typed split lives in the metrics registry).
  obs::SnapshotSeries series(std::vector<std::string>{
      "offered", "admitted", "rejected", "completed", "in_flight", "queued",
      "retried", "deadline_missed", "retry_exhausted", "breaker_open_lanes"});
  if (report.outcomes.empty()) return series;

  // The series must reach past the last arrival even when nothing completes
  // after it (all-rejected tails), so every offered job shows up in the
  // final row.
  SimTime end = report.makespan;
  for (const auto& o : report.outcomes) end = std::max(end, o.arrival);

  Seconds interval = options.snapshot_interval;
  const double spans = end.seconds() / interval.value();
  if (spans > static_cast<double>(options.max_snapshots)) {
    interval = Seconds{end.seconds() /
                       static_cast<double>(options.max_snapshots)};
  }

  const auto snap_at = [&](SimTime t) {
    std::uint64_t offered = 0, admitted = 0, rejected = 0;
    std::uint64_t completed = 0, in_flight = 0, queued = 0;
    std::uint64_t retried = 0, deadline_missed = 0, retry_exhausted = 0;
    for (const auto& o : report.outcomes) {
      if (o.arrival > t) continue;
      ++offered;
      if (o.rejected || o.deadline_rejected) {
        ++rejected;
        continue;
      }
      ++admitted;
      // Re-enqueues that have happened by t: requeue i fires at the end of
      // lost attempt i (only the first `retries` losses re-enqueued — an
      // exhausted job's final loss did not).
      for (std::uint32_t a = 0; a < o.retries; ++a) {
        if (o.lost_attempts[a].end <= t) ++retried;
      }
      if (o.resolved <= t) {
        // Terminal by t.
        if (o.deadline_missed) {
          ++deadline_missed;
        } else if (o.retry_exhausted) {
          ++retry_exhausted;
        } else {
          ++completed;
        }
        continue;
      }
      // Still active at t: the job is either inside one of its attempt
      // spans (in flight) or inside one of its wait gaps (queued).  The
      // two are computed independently — spans and gaps must tile
      // [arrival, resolved) exactly, which the check below enforces.
      bool in_flight_at = false, queued_at = false;
      SimTime gap_from = o.arrival;
      for (const auto& a : o.lost_attempts) {
        if (a.start <= t && t < a.end) in_flight_at = true;
        if (gap_from <= t && t < a.start) queued_at = true;
        gap_from = a.end;
      }
      if (o.completed() && o.lane >= 0 && o.start <= t &&
          t < o.start + o.service) {
        in_flight_at = true;
      }
      const SimTime final_wait_to = o.completed() ? o.start : o.resolved;
      if (gap_from <= t && t < final_wait_to) queued_at = true;
      ISP_CHECK(in_flight_at != queued_at,
                "job " << o.id << " is neither in flight nor queued at t="
                       << t.seconds() << "s — its attempt spans leak");
      if (in_flight_at) {
        ++in_flight;
      } else {
        ++queued;
      }
    }
    // Conservation at every row: admitted work is always somewhere.
    ISP_CHECK(admitted == completed + deadline_missed + retry_exhausted +
                              in_flight + queued,
              "snapshot row at t=" << t.seconds() << "s leaks jobs: "
                                   << admitted << " admitted vs "
                                   << completed << "+" << deadline_missed
                                   << "+" << retry_exhausted << "+"
                                   << in_flight << "+" << queued);
    ISP_CHECK(offered == admitted + rejected,
              "snapshot row at t=" << t.seconds() << "s loses offers");
    std::uint64_t breaker_open = 0;
    for (const auto& transitions : report.breaker_transitions) {
      BreakerState state = BreakerState::Closed;
      for (const auto& tr : transitions) {
        if (tr.time > t) break;
        state = tr.to;
      }
      if (state == BreakerState::Open) ++breaker_open;
    }
    series.push(t, {offered, admitted, rejected, completed, in_flight,
                    queued, retried, deadline_missed, retry_exhausted,
                    breaker_open});
  };

  for (SimTime t = SimTime::zero() + interval; t < end; t += interval) {
    snap_at(t);
  }
  snap_at(end);
  return series;
}

std::string metrics_json(const ServeReport& report) {
  std::string out;
  out += "{\n\"metrics\": ";
  out += chomp(report.metrics.to_json());
  out += ",\n\"snapshots\": ";
  out += chomp(report.snapshots.to_json());
  out += "\n}\n";
  return out;
}

}  // namespace isp::serve
