// Admission control and weighted fair-share scheduling across tenants.
//
// Every tenant owns a bounded FIFO queue.  An arrival either joins its
// tenant's queue or — when the queue is at queue_depth — is rejected with a
// typed Status (StatusCode::Overloaded), never dropped silently: the caller
// gets the status, the tenant's rejected counter advances, and the two
// together must account for every offered job exactly once.
//
// Dispatch order across tenants is weighted fair queueing over *job counts*:
// pick() chooses the non-empty tenant with the smallest virtual finish tag
// (dispatched + 1) / weight, ties broken by tenant index.  Under saturation
// this converges to dispatch shares proportional to the weights within one
// job, and a backlogged tenant can never starve: its tag stays put while
// every dispatch advances someone else's.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"

namespace isp::serve {

struct TenantConfig {
  double weight = 1.0;           // fair-share weight, > 0
  std::size_t queue_depth = 8;   // bounded queue; arrivals beyond it reject
  /// Per-job SLO: a job must *start* within `slo` of its arrival.  The
  /// default (infinity) disables deadlines for the tenant entirely.
  Seconds slo = Seconds::infinity();
};

/// One job waiting in (or rejected from) a tenant queue.  The serving loop
/// resolves job_class against its profile table; the controller only routes.
struct QueuedJob {
  std::uint64_t id = 0;
  std::uint32_t tenant = 0;
  std::uint32_t job_class = 0;
  SimTime arrival;
  /// Latest instant the job may start (arrival + tenant SLO); stamped by
  /// offer().  Infinity when the tenant has no SLO.
  SimTime deadline = SimTime::infinity();
  /// Earliest instant the job may start.  Arrivals use their arrival time;
  /// a job re-enqueued after a device death carries the death instant, so a
  /// retry can never start before the failure that caused it.
  SimTime ready;
  /// Serve-layer attempt number, 0 for the first dispatch.  Advanced by the
  /// serving loop on each re-enqueue.
  std::uint32_t attempt = 0;
};

struct TenantStats {
  std::uint64_t offered = 0;     // every arrival, admitted or not
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;    // typed Overloaded rejections
  /// Typed DeadlineExceeded rejections: the queue could have held the job
  /// but no lane could start it before its deadline.
  std::uint64_t deadline_rejected = 0;
  std::uint64_t dispatched = 0;  // attempts actually handed to a lane
  std::uint64_t completed = 0;
  /// Admitted jobs whose deadline expired while they waited in queue.
  std::uint64_t deadline_missed = 0;
  /// Re-enqueues after an in-flight job was lost to a device death.
  std::uint64_t retried = 0;
  /// Admitted jobs abandoned after their retry budget ran out (or no
  /// living lane could ever serve them).
  std::uint64_t retry_exhausted = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(std::vector<TenantConfig> tenants);

  [[nodiscard]] std::size_t tenant_count() const { return tenants_.size(); }

  /// Admit `job` into its tenant's queue.  Rejects with Overloaded when the
  /// queue is full, and with DeadlineExceeded when the tenant has an SLO and
  /// the fleet's earliest feasible start (`earliest_start`, from the caller)
  /// already lies strictly past arrival + slo.  Either way the offered
  /// counter advances exactly once.  On admission the job is stamped with
  /// its deadline and ready time.
  Status offer(const QueuedJob& job,
               SimTime earliest_start = SimTime::zero());

  [[nodiscard]] bool any_queued() const;
  [[nodiscard]] std::size_t queued(std::uint32_t tenant) const;

  /// Weighted fair pick across the non-empty queues (FIFO within a tenant);
  /// nullopt when everything is empty.
  std::optional<QueuedJob> pick();

  void note_completed(std::uint32_t tenant);

  /// Re-enqueue a job lost to a device death at the *head* of its tenant
  /// queue (FIFO order among survivors is preserved; the lost job goes
  /// first).  The queue-depth bound deliberately does not apply: an
  /// admitted job is never silently dropped on re-entry.  Counts one retry.
  void requeue_front(const QueuedJob& job);

  /// Undo a pick() that could not be placed this wave (every living lane
  /// already claimed): the job returns to the head of its queue and the
  /// dispatch is uncounted.
  void return_front(const QueuedJob& job);

  /// A picked job was found past its deadline before reaching a lane: the
  /// dispatch is uncounted and the miss recorded.
  void note_deadline_missed(std::uint32_t tenant);

  /// A job's serve-layer retry budget is gone.  `was_placed` says whether
  /// the final attempt reached a lane (death mid-service) or not (no living
  /// lane left to try — the dispatch is uncounted).
  void note_retry_exhausted(std::uint32_t tenant, bool was_placed);

  [[nodiscard]] const TenantStats& stats(std::uint32_t tenant) const;

 private:
  struct TenantState {
    TenantConfig config;
    std::deque<QueuedJob> queue;
    TenantStats stats;
  };
  std::vector<TenantState> tenants_;
};

}  // namespace isp::serve
