#include "serve/admission.hpp"

#include <utility>

#include "common/error.hpp"

namespace isp::serve {

AdmissionController::AdmissionController(std::vector<TenantConfig> tenants) {
  ISP_CHECK(!tenants.empty(), "admission needs at least one tenant");
  tenants_.reserve(tenants.size());
  for (auto& t : tenants) {
    ISP_CHECK(t.weight > 0.0, "tenant weight must be positive: " << t.weight);
    ISP_CHECK(t.queue_depth >= 1, "tenant queue depth must be at least 1");
    ISP_CHECK(t.slo.value() > 0.0, "tenant SLO must be positive: "
                                       << t.slo.value() << "s");
    tenants_.push_back(TenantState{.config = t, .queue = {}, .stats = {}});
  }
}

Status AdmissionController::offer(const QueuedJob& job,
                                  SimTime earliest_start) {
  ISP_CHECK(job.tenant < tenants_.size(), "unknown tenant " << job.tenant);
  auto& t = tenants_[job.tenant];
  t.stats.offered += 1;
  if (t.queue.size() >= t.config.queue_depth) {
    t.stats.rejected += 1;
    return Status{StatusCode::Overloaded};
  }
  QueuedJob admitted = job;
  admitted.ready = job.arrival;
  if (t.config.slo < Seconds::infinity()) {
    admitted.deadline = job.arrival + t.config.slo;
    // Boundary-equal starts are fine; only a start strictly past the
    // deadline is infeasible at admission time.
    if (earliest_start > admitted.deadline) {
      t.stats.deadline_rejected += 1;
      return Status{StatusCode::DeadlineExceeded};
    }
  }
  t.stats.admitted += 1;
  t.queue.push_back(admitted);
  return Status::ok();
}

bool AdmissionController::any_queued() const {
  for (const auto& t : tenants_) {
    if (!t.queue.empty()) return true;
  }
  return false;
}

std::size_t AdmissionController::queued(std::uint32_t tenant) const {
  ISP_CHECK(tenant < tenants_.size(), "unknown tenant " << tenant);
  return tenants_[tenant].queue.size();
}

std::optional<QueuedJob> AdmissionController::pick() {
  // Smallest virtual finish tag (dispatched + 1) / weight among non-empty
  // queues; the index tie-break keeps the order fully deterministic.
  std::size_t best = tenants_.size();
  double best_tag = 0.0;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const auto& t = tenants_[i];
    if (t.queue.empty()) continue;
    const double tag = static_cast<double>(t.stats.dispatched + 1) /
                       t.config.weight;
    if (best == tenants_.size() || tag < best_tag) {
      best = i;
      best_tag = tag;
    }
  }
  if (best == tenants_.size()) return std::nullopt;
  auto& t = tenants_[best];
  QueuedJob job = t.queue.front();
  t.queue.pop_front();
  t.stats.dispatched += 1;
  return job;
}

void AdmissionController::note_completed(std::uint32_t tenant) {
  ISP_CHECK(tenant < tenants_.size(), "unknown tenant " << tenant);
  tenants_[tenant].stats.completed += 1;
}

void AdmissionController::requeue_front(const QueuedJob& job) {
  ISP_CHECK(job.tenant < tenants_.size(), "unknown tenant " << job.tenant);
  ISP_CHECK(job.attempt >= 1, "a requeued job must have advanced its attempt");
  auto& t = tenants_[job.tenant];
  t.queue.push_front(job);
  t.stats.retried += 1;
}

void AdmissionController::return_front(const QueuedJob& job) {
  ISP_CHECK(job.tenant < tenants_.size(), "unknown tenant " << job.tenant);
  auto& t = tenants_[job.tenant];
  ISP_CHECK(t.stats.dispatched >= 1, "returning a job never dispatched");
  t.queue.push_front(job);
  t.stats.dispatched -= 1;
}

void AdmissionController::note_deadline_missed(std::uint32_t tenant) {
  ISP_CHECK(tenant < tenants_.size(), "unknown tenant " << tenant);
  auto& t = tenants_[tenant];
  ISP_CHECK(t.stats.dispatched >= 1, "missed deadline without a pick");
  t.stats.dispatched -= 1;
  t.stats.deadline_missed += 1;
}

void AdmissionController::note_retry_exhausted(std::uint32_t tenant,
                                               bool was_placed) {
  ISP_CHECK(tenant < tenants_.size(), "unknown tenant " << tenant);
  auto& t = tenants_[tenant];
  if (!was_placed) {
    ISP_CHECK(t.stats.dispatched >= 1, "exhausted a job never dispatched");
    t.stats.dispatched -= 1;
  }
  t.stats.retry_exhausted += 1;
}

const TenantStats& AdmissionController::stats(std::uint32_t tenant) const {
  ISP_CHECK(tenant < tenants_.size(), "unknown tenant " << tenant);
  return tenants_[tenant].stats;
}

}  // namespace isp::serve
