#include "serve/observe.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/trace_writer.hpp"

namespace isp::serve {

namespace {

/// Lane row labels, built once per export: "csd<k>" for device lanes,
/// "host<k>" for the host fallback lanes after them.
std::vector<std::string> lane_labels(const ServeReport& report) {
  const std::size_t lanes =
      std::max(report.lanes.size(), report.fleet_size + report.host_lanes);
  std::vector<std::string> labels;
  labels.reserve(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    labels.push_back(k < report.fleet_size
                         ? "csd" + std::to_string(k)
                         : "host" + std::to_string(k - report.fleet_size));
  }
  return labels;
}

/// Tenant queue row labels, built once per export.
std::vector<std::string> queue_labels(const ServeReport& report) {
  std::vector<std::string> labels;
  labels.reserve(report.tenant_count);
  for (std::size_t t = 0; t < report.tenant_count; ++t) {
    labels.push_back("tenant" + std::to_string(t) + " queue");
  }
  return labels;
}

/// The reused "job<id>" prefix buffer; with(suffix) renders one event name.
class JobName {
 public:
  void reset(std::uint64_t id) {
    buf_.assign("job");
    char digits[20];
    buf_.append(digits,
                std::to_chars(digits, digits + sizeof(digits), id).ptr);
    stem_ = buf_.size();
  }
  std::string_view with(std::string_view suffix) {
    buf_.resize(stem_);
    buf_.append(suffix);
    return buf_;
  }

 private:
  std::string buf_;
  std::size_t stem_ = 0;
};

/// Trace bytes reserved per outcome: a clean served job renders to about
/// 430; failure-heavy runs outgrow it and the string grows as usual.
constexpr std::size_t kTraceBytesPerJob = 512;

/// Strip one trailing newline so components embed cleanly.
std::string chomp(std::string s) {
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

}  // namespace

std::string to_fleet_trace(const ServeReport& report) {
  obs::TraceWriter trace(64 + kTraceBytesPerJob * report.outcomes.size());
  const auto lanes = lane_labels(report);
  const auto queues = queue_labels(report);
  JobName job;
  std::string name;  // reused for the fault and breaker event names

  for (const auto& o : report.outcomes) {
    job.reset(o.id);
    if (o.rejected || o.deadline_rejected) {
      trace
          .instant("admission",
                   job.with(o.rejected ? " rejected" : " deadline-rejected"),
                   o.arrival.seconds())
          .arg_u64("tenant", o.tenant);
      continue;
    }
    const std::string& queue_track = queues.at(o.tenant);

    // Per-attempt history: each attempt killed by a device death shows as
    // its own queue wait plus a [lost] span on the dying lane.  A job with
    // no lost attempts reduces exactly to the pre-failure-domain shape (one
    // wait, one placement, one service span) — obs_test pins that schema.
    SimTime wait_from = o.arrival;
    for (std::size_t a = 0; a < o.lost_attempts.size(); ++a) {
      const auto& lost = o.lost_attempts[a];
      trace.complete(queue_track, job.with(" [queue-wait]"),
                     wait_from.seconds(), (lost.start - wait_from).value());
      trace
          .complete(lanes.at(lost.lane), job.with(" [lost]"),
                    lost.start.seconds(), (lost.end - lost.start).value())
          .arg_u64("tenant", o.tenant)
          .arg_u64("attempt", a);
      wait_from = lost.end;
    }
    if (!o.completed()) {
      // Deadline expired in queue, or the retry budget ran dry: close the
      // final wait gap (if any) and mark the terminal instant.
      if (o.resolved > wait_from) {
        trace.complete(queue_track, job.with(" [queue-wait]"),
                       wait_from.seconds(), (o.resolved - wait_from).value());
      }
      trace
          .instant(queue_track,
                   job.with(o.deadline_missed ? " deadline-missed"
                                              : " retry-exhausted"),
                   o.resolved.seconds())
          .arg_u64("tenant", o.tenant)
          .arg_u64("retries", o.retries);
      continue;
    }
    trace.complete(queue_track, job.with(" [queue-wait]"),
                   wait_from.seconds(), (o.start - wait_from).value());

    const std::string& lane = lanes.at(static_cast<std::size_t>(o.lane));
    trace.instant(lane, job.with(" [placement]"), o.start.seconds())
        .arg_fixed6("eq1_profit_s", o.eq1_profit.value())
        .arg_raw("on_host", o.on_host ? "true" : "false")
        .arg_u64("class", o.job_class);

    // Outer job span with exec / migration / recovery sub-slices nested
    // inside it (sub-slice durations partition the measured service time;
    // obs_test asserts the sum).
    trace.complete(lane, job.with(""), o.start.seconds(), o.service.value())
        .arg_u64("tenant", o.tenant)
        .arg_u64("class", o.job_class)
        .arg_u64("migrations", o.migrations)
        .arg_u64("power_losses", o.power_losses)
        .arg_u64("faults", o.faults);
    const double overheads =
        o.migration_overhead.value() + o.recovery_overhead.value();
    const double exec = std::max(0.0, o.service.value() - overheads);
    double cursor = o.start.seconds();
    trace.complete(lane, job.with(" [exec]"), cursor, exec);
    cursor += exec;
    trace.complete(lane, job.with(" [migration]"), cursor,
                   o.migration_overhead.value());
    cursor += o.migration_overhead.value();
    trace.complete(lane, job.with(" [recovery]"), cursor,
                   o.recovery_overhead.value());

    // Backend reclaim stall absorbed inside the job's service, on its own
    // track so the lane's exec/migration/recovery partition is untouched
    // (persist-free jobs emit nothing here — the clean-run schema holds).
    if (o.reclaim_time.value() > 0.0) {
      trace
          .complete("storage", job.with(" [reclaim]"), o.start.seconds(),
                    o.reclaim_time.value())
          .arg_str("lane", lane)
          .arg_u64("internal_pages", o.storage_internal_pages);
    }

    for (const auto& f : o.fault_events) {
      name.assign("fault:");
      name.append(fault::to_string(f.site));
      if (f.exhausted) name.append(" (exhausted)");
      trace.instant("faults", name, f.time.seconds())
          .arg_u64("job", o.id)
          .arg_fixed6("penalty_us", f.penalty.value() * 1e6);
    }
  }

  // Failure-domain instants: permanent device deaths and breaker state
  // transitions, one per lane, in lane order.  A healthy run emits none of
  // these, so the clean-run event schema is untouched.
  for (std::size_t lane = 0;
       lane < report.fleet_size && lane < report.lanes.size(); ++lane) {
    const auto& ls = report.lanes[lane];
    if (ls.died_at == SimTime::infinity()) continue;
    trace.instant(lanes.at(lane), "device-failure", ls.died_at.seconds())
        .arg_u64("lost_jobs", ls.lost_jobs);
  }
  for (std::size_t lane = 0; lane < report.breaker_transitions.size();
       ++lane) {
    for (const auto& tr : report.breaker_transitions[lane]) {
      name.assign("breaker ");
      name.append(to_string(tr.from));
      name.append("->");
      name.append(to_string(tr.to));
      trace.instant(lanes.at(lane), name, tr.time.seconds())
          .arg_fixed6("score", tr.score);
    }
  }
  return trace.finish();
}

void write_fleet_trace(const ServeReport& report, const std::string& path) {
  obs::write_trace_file(path, to_fleet_trace(report));
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

  // Row instants, generated as they always were: the accumulated
  // t += interval sequence below `end`, then `end` itself.  Strictly
  // increasing, so an event at x counts from row lower_bound(rows, x) on —
  // the first row with x <= t.
  std::vector<SimTime> rows;
  for (SimTime t = SimTime::zero() + interval; t < end; t += interval) {
    rows.push_back(t);
  }
  rows.push_back(end);

  // One sweep: every outcome becomes +1/-1 deltas in a per-row difference
  // array (an event counts from its row on, a half-open span [a, b) from
  // row(a) up to row(b)), and a prefix sum emits the rows.  Row k then
  // counts exactly what a scan of every outcome at t = rows[k] would.
  enum Column : std::size_t {
    kOffered, kAdmitted, kRejected, kCompleted, kInFlight, kQueued,
    kRetried, kDeadlineMissed, kRetryExhausted, kCounted
  };
  std::vector<std::array<std::int64_t, kCounted>> delta(rows.size() + 1);
  const auto row_of = [&](SimTime x) {
    return static_cast<std::size_t>(
        std::lower_bound(rows.begin(), rows.end(), x) - rows.begin());
  };
  const auto from = [&](Column c, SimTime x) { ++delta[row_of(x)][c]; };
  const auto span = [&](Column c, SimTime a, SimTime b) {
    ++delta[row_of(a)][c];
    --delta[row_of(b)][c];
  };

  for (const auto& o : report.outcomes) {
    from(kOffered, o.arrival);
    if (o.rejected || o.deadline_rejected) {
      from(kRejected, o.arrival);
      continue;
    }
    from(kAdmitted, o.arrival);
    // Re-enqueue i fires at the end of lost attempt i (only the first
    // `retries` losses re-enqueued — an exhausted job's final loss did
    // not).
    for (std::uint32_t a = 0; a < o.retries; ++a) {
      from(kRetried, std::max(o.arrival, o.lost_attempts[a].end));
    }
    const SimTime terminal = std::max(o.arrival, o.resolved);
    if (o.deadline_missed) {
      from(kDeadlineMissed, terminal);
    } else if (o.retry_exhausted) {
      from(kRetryExhausted, terminal);
    } else {
      from(kCompleted, terminal);
    }
    // Until resolved the job is in one of its wait gaps (queued) or one of
    // its attempt spans (in flight).  Gaps and spans must tile
    // [arrival, resolved) in order — each piece starts where the previous
    // one ended and none runs backwards — so every instant of the job's
    // life is in exactly one of the two columns.
    SimTime at = o.arrival;
    bool tiles = true;
    const auto piece = [&](Column c, SimTime to) {
      tiles = tiles && at <= to;
      if (at < to) span(c, at, to);
      at = to;
    };
    for (const auto& a : o.lost_attempts) {
      piece(kQueued, a.start);
      piece(kInFlight, a.end);
    }
    if (o.completed()) {
      piece(kQueued, o.start);
      piece(kInFlight, o.start + o.service);
    } else {
      piece(kQueued, o.resolved);
    }
    ISP_CHECK(tiles && at == o.resolved,
              "job " << o.id << "'s attempt spans and wait gaps do not tile "
                     << "[arrival, resolved) — its attempt spans leak");
  }

  // Breaker-open lanes: a per-lane cursor over the transitions up to t.
  std::vector<std::size_t> cursor(report.breaker_transitions.size(), 0);
  std::array<std::int64_t, kCounted> count{};
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const SimTime t = rows[k];
    for (std::size_t c = 0; c < kCounted; ++c) count[c] += delta[k][c];
    const auto value = [&](Column c) {
      return static_cast<std::uint64_t>(count[c]);
    };
    // Conservation at every row: admitted work is always somewhere.
    ISP_CHECK(value(kAdmitted) == value(kCompleted) + value(kDeadlineMissed) +
                                   value(kRetryExhausted) + value(kInFlight) +
                                   value(kQueued),
              "snapshot row at t=" << t.seconds() << "s leaks jobs: "
                                   << value(kAdmitted) << " admitted vs "
                                   << value(kCompleted) << "+"
                                   << value(kDeadlineMissed) << "+"
                                   << value(kRetryExhausted) << "+"
                                   << value(kInFlight) << "+"
                                   << value(kQueued));
    ISP_CHECK(value(kOffered) == value(kAdmitted) + value(kRejected),
              "snapshot row at t=" << t.seconds() << "s loses offers");
    std::uint64_t breaker_open = 0;
    for (std::size_t lane = 0; lane < cursor.size(); ++lane) {
      const auto& transitions = report.breaker_transitions[lane];
      std::size_t& next = cursor[lane];
      while (next < transitions.size() && transitions[next].time <= t) ++next;
      if (next > 0 && transitions[next - 1].to == BreakerState::Open) {
        ++breaker_open;
      }
    }
    series.push(t, {value(kOffered), value(kAdmitted), value(kRejected),
                    value(kCompleted), value(kInFlight), value(kQueued),
                    value(kRetried), value(kDeadlineMissed),
                    value(kRetryExhausted), breaker_open});
  }
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
