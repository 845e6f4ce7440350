// Unit tests: the oracle's ring and status queue, and its controller's
// command processing over SQ/CQ queue pairs.
#include <gtest/gtest.h>

#include <map>

#include "fault/fault.hpp"
#include "flash/flash_array.hpp"
#include "flash/ftl.hpp"
#include "oracle/nvme_controller.hpp"
#include "oracle/nvme_queues.hpp"
#include "oracle/simulator.hpp"

namespace isp::nvme {
namespace {

TEST(Ring, EmptyAndFullSemantics) {
  Ring<int> ring(4);  // 3 usable slots (NVMe: full at tail+1 == head)
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.full());
  EXPECT_TRUE(ring.push(1));
  EXPECT_TRUE(ring.push(2));
  EXPECT_TRUE(ring.push(3));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.push(4));
  EXPECT_EQ(ring.size(), 3u);
}

TEST(Ring, FifoOrderAcrossWrap) {
  Ring<int> ring(4);
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 10; ++round) {
    while (ring.push(next_in)) ++next_in;
    while (const auto v = ring.pop()) {
      EXPECT_EQ(*v, next_out);
      ++next_out;
    }
  }
  EXPECT_EQ(next_in, next_out);
  EXPECT_GT(next_in, 20);
}

TEST(Ring, PopEmptyReturnsNullopt) {
  Ring<int> ring(4);
  EXPECT_FALSE(ring.pop().has_value());
}

TEST(Ring, MinimumCapacityEnforced) {
  EXPECT_THROW(Ring<int>{1}, Error);
}

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : array_(),
        ftl_(make_ftl_config()),
        controller_(simulator_, array_, [this] { return &ftl_; }),
        qp_(1, 16) {}

  static flash::FtlConfig make_ftl_config() {
    flash::FtlConfig config;
    config.geometry.channels = 1;
    config.geometry.dies_per_channel = 1;
    config.geometry.planes_per_die = 1;
    config.geometry.blocks_per_die = 24;
    config.geometry.pages_per_block = 8;
    config.overprovision = 0.3;
    return config;
  }

  sim::Simulator simulator_;
  flash::FlashArray array_;
  flash::Ftl ftl_;
  Controller controller_;
  QueuePair qp_;
};

TEST_F(ControllerTest, WriteThenReadCompletes) {
  qp_.sq().push(SubmissionEntry{.opcode = Opcode::Write,
                                .command_id = 1,
                                .lba = 0,
                                .length_pages = 4});
  qp_.sq().push(SubmissionEntry{.opcode = Opcode::Read,
                                .command_id = 2,
                                .lba = 0,
                                .length_pages = 4});
  controller_.ring_doorbell(qp_);
  simulator_.run();

  const auto c1 = qp_.cq().pop();
  const auto c2 = qp_.cq().pop();
  ASSERT_TRUE(c1 && c2);
  EXPECT_EQ(c1->command_id, 1);
  EXPECT_EQ(c1->status, Status::Success);
  EXPECT_EQ(c2->command_id, 2);
  EXPECT_EQ(c2->status, Status::Success);
  EXPECT_EQ(controller_.commands_processed(), 2u);
  EXPECT_GT(simulator_.now().seconds(), 0.0);
}

TEST_F(ControllerTest, ReadOfUnmappedPageFails) {
  qp_.sq().push(SubmissionEntry{.opcode = Opcode::Read,
                                .command_id = 7,
                                .lba = 3,
                                .length_pages = 1});
  controller_.ring_doorbell(qp_);
  simulator_.run();
  const auto completion = qp_.cq().pop();
  ASSERT_TRUE(completion);
  EXPECT_EQ(completion->status, Status::Error);
}

TEST_F(ControllerTest, ExecHookHandlesCsdCommands) {
  Seconds seen_service = Seconds::zero();
  controller_.set_exec_hook([&](const SubmissionEntry& entry) {
    EXPECT_EQ(entry.arg_address, 0xdead0000u);
    seen_service = Seconds{0.25};
    return seen_service;
  });
  qp_.sq().push(SubmissionEntry{.opcode = Opcode::CsdExec,
                                .command_id = 9,
                                .arg_address = 0xdead0000});
  controller_.ring_doorbell(qp_);
  simulator_.run();
  const auto completion = qp_.cq().pop();
  ASSERT_TRUE(completion);
  EXPECT_EQ(completion->command_id, 9);
  // Completion arrives no earlier than the execution service time.
  EXPECT_GE(simulator_.now().seconds(), 0.25);
}

TEST_F(ControllerTest, ExecWithoutHookThrows) {
  qp_.sq().push(SubmissionEntry{.opcode = Opcode::CsdExec, .command_id = 3});
  controller_.ring_doorbell(qp_);
  EXPECT_THROW(simulator_.run(), Error);
}

TEST_F(ControllerTest, AbortAcknowledgedQuickly) {
  qp_.sq().push(SubmissionEntry{.opcode = Opcode::CsdAbort, .command_id = 4});
  controller_.ring_doorbell(qp_);
  simulator_.run();
  const auto completion = qp_.cq().pop();
  ASSERT_TRUE(completion);
  EXPECT_EQ(completion->command_id, 4);
  EXPECT_LT(simulator_.now().seconds(), 1e-3);
}

TEST(CallQueue, SubmitFetchRoundTrip) {
  CallQueue queue(8);
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(queue.submit(CallEntry{.function_id = 1, .first_line = 4}));
  const auto entry = queue.fetch();
  ASSERT_TRUE(entry);
  EXPECT_EQ(entry->function_id, 1u);
  EXPECT_EQ(entry->first_line, 4u);
  EXPECT_TRUE(queue.empty());
}

TEST_F(ControllerTest, RoundRobinArbitrationIsFair) {
  QueuePair second(2, 16);
  // Seed both queues with writes to distinct logical pages.
  for (std::uint16_t i = 0; i < 4; ++i) {
    qp_.sq().push(SubmissionEntry{.opcode = Opcode::Write,
                                  .command_id = static_cast<std::uint16_t>(
                                      100 + i),
                                  .lba = i,
                                  .length_pages = 1});
    second.sq().push(SubmissionEntry{.opcode = Opcode::Write,
                                     .command_id = static_cast<std::uint16_t>(
                                         200 + i),
                                     .lba = static_cast<std::uint64_t>(
                                         32 + i),
                                     .length_pages = 1});
  }
  controller_.ring_doorbell(qp_);
  controller_.ring_doorbell(second);
  EXPECT_EQ(controller_.queues_registered(), 2u);
  simulator_.run();

  // Both queues fully served.
  std::size_t first_done = 0;
  while (qp_.cq().pop()) ++first_done;
  std::size_t second_done = 0;
  while (second.cq().pop()) ++second_done;
  EXPECT_EQ(first_done, 4u);
  EXPECT_EQ(second_done, 4u);
  EXPECT_EQ(controller_.commands_processed(), 8u);
}

TEST_F(ControllerTest, LateQueueJoinsTheRotation) {
  qp_.sq().push(SubmissionEntry{.opcode = Opcode::Write,
                                .command_id = 1,
                                .lba = 0,
                                .length_pages = 1});
  controller_.ring_doorbell(qp_);
  simulator_.run();
  ASSERT_TRUE(qp_.cq().pop().has_value());

  QueuePair late(3, 16);
  late.sq().push(SubmissionEntry{.opcode = Opcode::Write,
                                 .command_id = 2,
                                 .lba = 5,
                                 .length_pages = 1});
  controller_.ring_doorbell(late);
  simulator_.run();
  const auto completion = late.cq().pop();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->command_id, 2);
}

// Regression: the latent dangling-CQ-entry bug class.  A naive timeout
// implementation posts a completion for the timed-out attempt AND lets the
// requeued retry complete again, so the host sees two completions for one
// command id.  The contract is exactly one completion per command, no
// matter how many attempts the fault schedule forces.
TEST_F(ControllerTest, TimedOutCommandsPostNoDanglingCompletions) {
  fault::FaultConfig config;
  config.seed = 99;
  config.set_rate(fault::Site::NvmeCommand, 0.5);
  fault::Injector injector(config);
  controller_.set_injector(&injector);

  constexpr std::uint16_t kCommands = 8;
  for (std::uint16_t i = 0; i < kCommands; ++i) {
    qp_.sq().push(SubmissionEntry{.opcode = Opcode::Write,
                                  .command_id = i,
                                  .lba = i,
                                  .length_pages = 1});
  }
  controller_.ring_doorbell(qp_);
  simulator_.run();  // must drain: bounded retries, no livelock

  std::map<std::uint16_t, int> seen;
  while (const auto c = qp_.cq().pop()) ++seen[c->command_id];
  EXPECT_EQ(seen.size(), kCommands);
  for (const auto& [id, count] : seen) {
    EXPECT_EQ(count, 1) << "command " << id << " completed " << count
                        << " times";
  }
  // Every command either executed or failed typed — none vanished.
  EXPECT_EQ(controller_.commands_processed() + controller_.commands_failed(),
            kCommands);
  EXPECT_GT(injector.summary().total_injected(), 0u);
}

TEST_F(ControllerTest, ExhaustedRetriesCompleteOnceWithTypedError) {
  fault::FaultConfig config;
  config.set_rate(fault::Site::NvmeCommand, 1.0);  // every attempt is lost
  fault::Injector injector(config);
  controller_.set_injector(&injector);

  qp_.sq().push(SubmissionEntry{.opcode = Opcode::Write,
                                .command_id = 42,
                                .lba = 0,
                                .length_pages = 1});
  controller_.ring_doorbell(qp_);
  simulator_.run();  // terminates: the retry policy bounds the attempts

  const auto completion = qp_.cq().pop();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->command_id, 42);
  EXPECT_EQ(completion->status, Status::Error);
  EXPECT_FALSE(qp_.cq().pop().has_value());  // exactly one completion
  EXPECT_EQ(controller_.commands_processed(), 0u);
  EXPECT_EQ(controller_.commands_failed(), 1u);

  // Virtual time covers every timeout + exponential backoff: with the
  // default policy, 4 x 50us timeouts plus 10+20+40+80us of backoff.
  const auto& retry = config.retry;
  const Seconds timeout = OracleControllerConfig{}.command_timeout;
  Seconds expected = Seconds::zero();
  for (std::uint32_t a = 1; a <= retry.max_attempts; ++a) {
    expected += timeout + retry.backoff_before(a);
  }
  EXPECT_GE(simulator_.now().seconds(), expected.value());
  EXPECT_LT(simulator_.now().seconds(), expected.value() + 1e-3);
}

TEST_F(ControllerTest, UncorrectableEccReadSurfacesAsCommandError) {
  fault::FaultConfig config;
  config.set_rate(fault::Site::FlashReadEcc, 1.0);
  fault::Injector injector(config);
  array_.set_injector(&injector);

  qp_.sq().push(SubmissionEntry{.opcode = Opcode::Write,
                                .command_id = 1,
                                .lba = 0,
                                .length_pages = 2});
  qp_.sq().push(SubmissionEntry{.opcode = Opcode::Read,
                                .command_id = 2,
                                .lba = 0,
                                .length_pages = 2});
  controller_.ring_doorbell(qp_);
  simulator_.run();

  const auto w = qp_.cq().pop();
  const auto r = qp_.cq().pop();
  ASSERT_TRUE(w && r);
  EXPECT_EQ(w->status, Status::Success);  // program site is at rate 0
  EXPECT_EQ(r->command_id, 2);
  EXPECT_EQ(r->status, Status::Error);
  EXPECT_EQ(injector.summary().exhausted[static_cast<std::size_t>(
                fault::Site::FlashReadEcc)],
            1u);
}

// An IO range that leaves the backend's logical space fails as a whole:
// one Error completion, no page programmed, and the controller keeps
// serving the commands behind it.
TEST_F(ControllerTest, WriteCrossingLogicalSpaceFailsWithoutTouchingPages) {
  const std::uint64_t logical = ftl_.logical_pages();
  qp_.sq().push(SubmissionEntry{.opcode = Opcode::Write,
                                .command_id = 1,
                                .lba = logical - 1,
                                .length_pages = 2});
  // lba + length wraps around 2^64: must not pass the check by overflow.
  qp_.sq().push(SubmissionEntry{.opcode = Opcode::Write,
                                .command_id = 2,
                                .lba = ~std::uint64_t{0} - 1,
                                .length_pages = 4});
  qp_.sq().push(SubmissionEntry{.opcode = Opcode::Write,
                                .command_id = 3,
                                .lba = logical - 1,
                                .length_pages = 1});
  controller_.ring_doorbell(qp_);
  simulator_.run();

  std::map<std::uint16_t, Status> seen;
  while (const auto c = qp_.cq().pop()) seen[c->command_id] = c->status;
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[1], Status::Error);
  EXPECT_EQ(seen[2], Status::Error);
  EXPECT_EQ(seen[3], Status::Success);  // the last page itself is in range
  EXPECT_EQ(ftl_.stats().host_writes, 1u) << "failed writes programmed pages";
  EXPECT_EQ(array_.bytes_written().count(),
            array_.geometry().page_bytes.count());
  EXPECT_EQ(controller_.commands_processed(), 3u);
}

TEST_F(ControllerTest, ReadCrossingLogicalSpaceFailsTyped) {
  const std::uint64_t logical = ftl_.logical_pages();
  qp_.sq().push(SubmissionEntry{.opcode = Opcode::Write,
                                .command_id = 1,
                                .lba = logical - 1,
                                .length_pages = 1});
  qp_.sq().push(SubmissionEntry{.opcode = Opcode::Read,
                                .command_id = 2,
                                .lba = logical - 1,
                                .length_pages = 2});
  qp_.sq().push(SubmissionEntry{.opcode = Opcode::Read,
                                .command_id = 3,
                                .lba = ~std::uint64_t{0},
                                .length_pages = 1});
  qp_.sq().push(SubmissionEntry{.opcode = Opcode::Read,
                                .command_id = 4,
                                .lba = logical - 1,
                                .length_pages = 1});
  controller_.ring_doorbell(qp_);
  simulator_.run();

  std::map<std::uint16_t, Status> seen;
  while (const auto c = qp_.cq().pop()) seen[c->command_id] = c->status;
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[1], Status::Success);
  EXPECT_EQ(seen[2], Status::Error);
  EXPECT_EQ(seen[3], Status::Error);
  EXPECT_EQ(seen[4], Status::Success);
  EXPECT_EQ(array_.bytes_read().count(), array_.geometry().page_bytes.count())
      << "only the in-range read reaches the array";
}

TEST(StatusQueue, DropsOldestWhenFull) {
  StatusQueue queue(4);  // 3 usable slots
  for (std::uint32_t i = 0; i < 10; ++i) {
    StatusEntry e;
    e.line = i;
    queue.post(e);
  }
  EXPECT_EQ(queue.posted(), 10u);
  EXPECT_GT(queue.dropped(), 0u);
  // The freshest updates survive.
  std::uint32_t last = 0;
  while (const auto e = queue.poll()) last = e->line;
  EXPECT_EQ(last, 9u);
}

}  // namespace
}  // namespace isp::nvme
