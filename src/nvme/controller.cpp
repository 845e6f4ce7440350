#include "nvme/controller.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace isp::nvme {

Controller::Controller(sim::Simulator& simulator, flash::FlashArray& array,
                       StorageSource storage, ControllerConfig config)
    : simulator_(&simulator),
      array_(&array),
      storage_(std::move(storage)),
      config_(config) {}

void Controller::ring_doorbell(QueuePair& qp) {
  if (std::find(queues_.begin(), queues_.end(), &qp) == queues_.end()) {
    queues_.push_back(&qp);
  }
  if (busy_) return;  // already draining; the loop will pick new entries up
  busy_ = true;
  const auto epoch = epoch_;
  simulator_->schedule(config_.doorbell_to_fetch, [this, epoch] {
    if (epoch != epoch_) return;  // reset while the fetch was in flight
    process_next();
  });
}

QueuePair* Controller::select_queue() {
  for (std::size_t step = 0; step < queues_.size(); ++step) {
    const std::size_t idx = (rr_cursor_ + step) % queues_.size();
    if (!queues_[idx]->sq().empty()) {
      rr_cursor_ = (idx + 1) % queues_.size();
      return queues_[idx];
    }
  }
  return nullptr;
}

void Controller::process_next() {
  QueuePair* qp = select_queue();
  if (qp == nullptr) {
    busy_ = false;
    return;
  }
  const auto entry = qp->sq().pop();
  ISP_DCHECK(entry.has_value(), "selected queue drained concurrently");
  inflight_[AttemptKey{qp->id(), entry->command_id}] = {qp, *entry};

  if (injector_ != nullptr &&
      injector_->draw(fault::Site::NvmeCommand)) {
    handle_timeout(*qp, *entry);
    return;
  }
  if (!attempts_.empty()) {
    // A previously timed-out command made it through on this attempt.
    attempts_.erase(AttemptKey{qp->id(), entry->command_id});
  }

  const Bytes page = array_->geometry().page_bytes;
  const Bytes io_bytes{static_cast<std::uint64_t>(entry->length_pages) *
                       page.count()};
  SimTime done = simulator_->now();
  Status status = Status::Success;

  // IO commands address the backend's logical space.  A range that leaves
  // it fails as a whole, before any page is translated or programmed.
  flash::StorageBackend* storage = nullptr;
  bool in_range = true;
  if (entry->opcode == Opcode::Read || entry->opcode == Opcode::Write) {
    storage = storage_();
    if (storage != nullptr) {
      const std::uint64_t logical = storage->logical_pages();
      in_range = entry->lba <= logical &&
                 entry->length_pages <= logical - entry->lba;
    }
  }

  switch (entry->opcode) {
    case Opcode::Read: {
      if (!in_range) {
        status = Status::Error;
        break;
      }
      // Validate every page is mapped; timing itself is bulk-analytic.
      if (storage != nullptr &&
          storage->read_span(entry->lba, entry->length_pages, nullptr) !=
              entry->length_pages) {
        status = Status::Error;
      }
      if (status == Status::Success) {
        array_->note_read(io_bytes);
        // Fault-aware path: an uncorrectable read (ECC retries exhausted,
        // reconstruction failed) surfaces to the host as a command error.
        const auto io = array_->read_io(simulator_->now(), io_bytes);
        done = io.done;
        if (!io.status.is_ok()) status = Status::Error;
      }
      break;
    }
    case Opcode::Write: {
      if (!in_range) {
        status = Status::Error;
        break;
      }
      if (storage != nullptr) {
        storage->write_span(entry->lba, entry->length_pages);
      }
      array_->note_write(io_bytes);
      const auto io = array_->write_io(simulator_->now(), io_bytes);
      done = io.done;
      if (!io.status.is_ok()) status = Status::Error;
      break;
    }
    case Opcode::CsdExec: {
      ISP_CHECK(exec_hook_ != nullptr,
                "CsdExec submitted but no execution hook installed");
      const Seconds service = exec_hook_(*entry);
      done = simulator_->now() + service;
      break;
    }
    case Opcode::CsdAbort: {
      // The abort takes effect at the next line boundary; acknowledging it
      // costs only the completion post.
      break;
    }
  }

  const auto command_id = entry->command_id;
  const auto epoch = epoch_;
  simulator_->schedule_at(done + config_.completion_post,
                          [this, qp, command_id, status, epoch] {
                            if (epoch != epoch_) return;  // aborted by reset
                            // Counted at completion, not at fetch: an attempt
                            // cut down by a power cycle completes as Aborted
                            // and is requeued — only the attempt that posts
                            // its completion was processed.
                            ++commands_processed_;
                            complete(*qp, command_id, status);
                            process_next();
                          });
}

void Controller::handle_timeout(QueuePair& qp, const SubmissionEntry& entry) {
  // The fetched command is lost inside the device, so no completion is
  // posted for this attempt — posting one and then re-executing the command
  // is exactly the dangling-CQ-entry bug this path exists to prevent (the
  // host would see two completions for one command id; regression-tested in
  // tests/nvme_test.cpp).  Recovery is host-visible: the command timeout
  // elapses, the host backs off exponentially and requeues the command at
  // the SQ tail.  Attempts are bounded by the retry policy; the exhausted
  // case completes exactly once with Status::Error instead of hanging.
  const fault::FaultConfig& fc = injector_->config();
  const AttemptKey key{qp.id(), entry.command_id};
  const std::uint32_t faulted = ++attempts_[key];
  const bool exhausted = faulted >= fc.retry.max_attempts;
  const Seconds wait =
      fc.nvme_command_timeout + fc.retry.backoff_before(faulted);
  injector_->note_outcome(fault::Site::NvmeCommand, simulator_->now(),
                          /*faults=*/1, wait, exhausted);

  QueuePair* qpp = &qp;
  const auto epoch = epoch_;
  if (exhausted) {
    attempts_.erase(key);
    ++commands_failed_;
    const auto command_id = entry.command_id;
    simulator_->schedule(wait, [this, qpp, command_id, epoch] {
      if (epoch != epoch_) return;  // aborted by reset
      complete(*qpp, command_id, Status::Error);
      process_next();
    });
    return;
  }
  const SubmissionEntry retry = entry;
  simulator_->schedule(wait, [this, qpp, retry, epoch] {
    if (epoch != epoch_) return;  // aborted by reset
    if (qpp->sq().push(retry)) {
      // Back in the host SQ: no longer in flight inside the device.
      inflight_.erase(AttemptKey{qpp->id(), retry.command_id});
    } else {
      // The host refilled the SQ while we backed off; the command cannot be
      // requeued, so fail it in a typed way rather than drop it silently.
      attempts_.erase(AttemptKey{qpp->id(), retry.command_id});
      ++commands_failed_;
      complete(*qpp, retry.command_id, Status::Error);
    }
    process_next();
  });
}

void Controller::complete(QueuePair& qp, std::uint16_t command_id,
                          Status status) {
  inflight_.erase(AttemptKey{qp.id(), command_id});
  const bool posted = qp.cq().push(CompletionEntry{command_id, status});
  ISP_CHECK(posted, "completion queue overflow on qp " << qp.id());
}

std::uint64_t Controller::power_cycle() {
  // Invalidate everything scheduled: pending fetches, completion posts and
  // timeout/requeue lambdas all carry the old epoch and will no-op.
  ++epoch_;
  busy_ = false;
  attempts_.clear();
  const auto inflight = std::move(inflight_);
  inflight_.clear();
  std::uint64_t requeued = 0;
  for (const auto& [key, cmd] : inflight) {
    QueuePair* qp = cmd.first;
    // Exactly one completion per submission: the aborted attempt posts its
    // reset status here, and the host's requeue is a fresh submission that
    // will earn its own completion when the restarted controller serves it.
    const bool posted = qp->cq().push(
        CompletionEntry{cmd.second.command_id, Status::Aborted});
    ISP_CHECK(posted, "completion queue overflow on reset, qp " << qp->id());
    if (qp->sq().push(cmd.second)) {
      ++requeued;
    } else {
      ++commands_failed_;  // host SQ refilled meanwhile; surfaced as Aborted
    }
  }
  commands_requeued_ += requeued;
  return requeued;
}

void Controller::restart() {
  if (busy_) return;
  bool pending = false;
  for (QueuePair* qp : queues_) {
    if (!qp->sq().empty()) {
      pending = true;
      break;
    }
  }
  if (!pending) return;
  busy_ = true;
  const auto epoch = epoch_;
  simulator_->schedule(config_.doorbell_to_fetch, [this, epoch] {
    if (epoch != epoch_) return;
    process_next();
  });
}

}  // namespace isp::nvme
