// Tests for the deterministic parallel sweep executor (src/exec).
//
// The contract under test is the one every harness leans on:
//   * run_batch collects results in submission order, regardless of which
//     worker ran which index when;
//   * the same batch produces byte-identical results at any job count and
//     across repeated runs — parallelism is a pure wall-clock optimisation;
//   * a throwing task never leaks a worker thread, and the lowest-index
//     exception is the one rethrown (again independent of thread timing).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "common/rng.hpp"
#include "exec/cli.hpp"
#include "exec/pool.hpp"
#include "runtime/active_runtime.hpp"
#include "system/model.hpp"

namespace isp::exec {
namespace {

/// Live thread count of this process (Linux /proc; -1 if unavailable).
int live_threads() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
#endif
  return -1;
}

/// A deterministic, seed-derived payload heavy enough that tasks overlap
/// when run in parallel: every task owns its RNG, nothing is shared.
std::vector<std::uint64_t> task_payload(std::size_t index) {
  Rng rng(1000 + index);
  std::vector<std::uint64_t> out(64);
  for (auto& v : out) v = rng.uniform_u64(0, 1'000'000);
  return out;
}

TEST(RunBatch, EmptyBatchIsEmpty) {
  int calls = 0;
  const auto results = run_batch(
      std::size_t{0}, [&](std::size_t) { ++calls; return 1; }, 8);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(calls, 0);
}

TEST(RunBatch, ResultsLandInSubmissionOrder) {
  struct Tagged {
    std::size_t index = 0;
    std::uint64_t value = 0;
  };
  for (const unsigned jobs : {1U, 2U, 8U}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    const auto results = run_batch(
        std::size_t{37},
        [](std::size_t i) {
          return Tagged{i, task_payload(i).front()};
        },
        jobs);
    ASSERT_EQ(results.size(), 37u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].index, i);
      EXPECT_EQ(results[i].value, task_payload(i).front());
    }
  }
}

TEST(RunBatch, ByteIdenticalAcrossJobCountsAndRuns) {
  struct Payload {
    std::vector<std::uint64_t> values;
  };
  const auto run = [](unsigned jobs) {
    return run_batch(
        std::size_t{48},
        [](std::size_t i) { return Payload{task_payload(i)}; }, jobs);
  };
  const auto serial = run(1);
  for (const unsigned jobs : {2U, 8U}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    const auto parallel = run(jobs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].values, serial[i].values);
    }
  }
  // Two runs at the same job count: also identical (no run-to-run drift).
  const auto again = run(8);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(again[i].values, serial[i].values);
  }
}

// A batch of full faulted runs (planner, engine, monitor and migration,
// with ECC-failed flash reads, CSE crashes and lost status updates) lands
// bit for bit the same serially and fanned out over four workers.  Each
// task builds everything it mutates (the run_batch contract).
TEST(RunBatch, FaultedRunsIdenticalAcrossJobCounts) {
  struct Outcome {
    double total = 0.0;
    std::uint64_t injected = 0;
    std::uint64_t status_updates = 0;
    std::uint64_t migrations = 0;
  };
  const auto run = [](unsigned jobs) {
    return run_batch(
        std::size_t{6},
        [](std::size_t i) {
          apps::AppConfig config;
          config.size_factor = 0.1;
          const auto program = apps::make_app("tpch-q6", config);
          system::SystemModel system;
          runtime::RunConfig rc;
          rc.engine.fault.seed = 100 + i;
          rc.engine.fault.set_rate(fault::Site::FlashReadEcc, 0.2);
          rc.engine.fault.set_rate(fault::Site::CseCrash, 0.3);
          rc.engine.fault.set_rate(fault::Site::StatusLoss, 0.3);
          runtime::ActiveRuntime active(system);
          const auto result = active.run(program, rc);
          return Outcome{result.report.total.value(),
                         result.report.faults.total_injected(),
                         result.report.status_updates,
                         result.report.migrations};
        },
        jobs);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(parallel.size(), serial.size());
  std::uint64_t injected = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    EXPECT_EQ(parallel[i].total, serial[i].total);
    EXPECT_EQ(parallel[i].injected, serial[i].injected);
    EXPECT_EQ(parallel[i].status_updates, serial[i].status_updates);
    EXPECT_EQ(parallel[i].migrations, serial[i].migrations);
    injected += serial[i].injected;
  }
  EXPECT_GT(injected, 0u) << "no fault fired: the batch is not faulted";
}

TEST(RunBatch, ConfigOverloadPreservesConfigOrder) {
  const std::vector<int> configs = {5, 3, 11, 7};
  const auto results = run_batch(
      configs, [](const int& c) { return c * 10; }, 4);
  EXPECT_EQ(results, (std::vector<int>{50, 30, 110, 70}));
}

TEST(RunBatch, LowestIndexExceptionRethrown) {
  for (const unsigned jobs : {1U, 2U, 8U}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    try {
      run_batch(
          std::size_t{16},
          [](std::size_t i) -> int {
            if (i == 3) throw std::runtime_error("boom at 3");
            if (i == 11) throw std::runtime_error("boom at 11");
            return static_cast<int>(i);
          },
          jobs);
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 3");
    }
  }
}

TEST(RunBatch, ThrowingTasksLeakNoThreads) {
  const int before = live_threads();
  if (before < 0) GTEST_SKIP() << "/proc/self/status unavailable";
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(run_batch(
                     std::size_t{32},
                     [](std::size_t i) -> int {
                       if (i % 5 == 0) throw std::runtime_error("die");
                       return static_cast<int>(i);
                     },
                     8),
                 std::runtime_error);
  }
  // Every batch joined its workers before the rethrow reached us.
  EXPECT_EQ(live_threads(), before);
  // And scheduling goes on after a throwing batch.
  const auto clean = run_batch(
      std::size_t{16}, [](std::size_t i) { return static_cast<int>(i); }, 8);
  EXPECT_EQ(std::accumulate(clean.begin(), clean.end(), 0), 120);
  EXPECT_EQ(live_threads(), before);
}

TEST(RunBatch, RemainingTasksStillRunAfterAnExceptionElsewhere) {
  std::atomic<int> completed{0};
  EXPECT_THROW(run_batch(
                   std::size_t{24},
                   [&](std::size_t i) -> int {
                     if (i == 0) throw std::runtime_error("first dies");
                     completed.fetch_add(1, std::memory_order_relaxed);
                     return static_cast<int>(i);
                   },
                   4),
               std::runtime_error);
  // The batch settles before rethrowing: every non-throwing task ran.
  EXPECT_EQ(completed.load(), 23);
}

TEST(RunBatch, RapidBackToBackBatchesAreRaceFree) {
  // Back-to-back tiny batches start and join their workers in quick
  // succession, so under TSan this test flags any result or exception slot
  // read before its writer joined, and any unsynchronised index hand-out.
  std::uint64_t checksum = 0;
  for (int batch = 0; batch < 200; ++batch) {
    struct Slot {
      std::uint64_t value = 0;
    };
    const auto out = run_batch(
        std::size_t{8},
        [&](std::size_t i) {
          return Slot{static_cast<std::uint64_t>(batch) * 100 + i};
        },
        4);
    for (const Slot& s : out) checksum += s.value;
  }
  // sum over batches b of (800*b + 28)
  EXPECT_EQ(checksum, 800ull * (199ull * 200ull / 2ull) + 28ull * 200ull);
}

TEST(RunBatch, NeverRunsMoreThanJobsTasksAtOnce) {
  // Each task holds its slot for a while, so a batch that overshoots its
  // concurrency would show it; reproduce's peak RSS follows this bound.
  constexpr std::size_t kTasks = 12;
  for (const unsigned jobs : {1U, 2U, 4U}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    std::atomic<int> in_flight{0};
    std::atomic<int> peak{0};
    run_batch(
        kTasks,
        [&](std::size_t i) {
          const int now = ++in_flight;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          --in_flight;
          return static_cast<int>(i);
        },
        jobs);
    if (jobs == 1) {
      EXPECT_EQ(peak.load(), 1);
    } else {
      EXPECT_LE(peak.load(),
                static_cast<int>(std::min<std::size_t>(jobs, kTasks)));
    }
  }
}

TEST(RunBatch, DefaultJobsIsAtLeastOne) { EXPECT_GE(default_jobs(), 1u); }

TEST(Cli, JobsFromArgsParsesBothSpellings) {
  const char* argv_sep[] = {"prog", "--jobs", "3"};
  EXPECT_EQ(jobs_from_args(3, const_cast<char**>(argv_sep)), 3u);
  const char* argv_eq[] = {"prog", "--jobs=5"};
  EXPECT_EQ(jobs_from_args(2, const_cast<char**>(argv_eq)), 5u);
  const char* argv_none[] = {"prog", "--other"};
  EXPECT_EQ(jobs_from_args(2, const_cast<char**>(argv_none)), default_jobs());
}

TEST(Cli, ParseEnumMatchesExactChoiceOnly) {
  const std::vector<const char*> choices = {"ftl", "zns", "mixed"};
  ASSERT_TRUE(parse_enum("ftl", choices).has_value());
  EXPECT_EQ(*parse_enum("ftl", choices), 0u);
  EXPECT_EQ(*parse_enum("zns", choices), 1u);
  EXPECT_EQ(*parse_enum("mixed", choices), 2u);
}

TEST(Cli, ParseEnumRejectsEveryMalformedShape) {
  const std::vector<const char*> choices = {"ftl", "zns", "mixed"};
  const char* bad[] = {
      "",       // empty
      "FTL",    // no case folding
      "Zns",    //
      "ft",     // no prefixes
      "ftlx",   // no trailing junk
      " ftl",   // leading whitespace
      "ftl ",   // trailing whitespace
      "mix",    // partial choice
      "random", // not a choice at all
  };
  for (const char* text : bad) {
    EXPECT_FALSE(parse_enum(text, choices).has_value())
        << "\"" << text << "\"";
  }
  EXPECT_FALSE(parse_enum(nullptr, choices).has_value());
}

TEST(Cli, EnumFlagParsesBothSpellingsAndFallsBack) {
  const std::vector<const char*> choices = {"ftl", "zns", "mixed"};
  const char* argv[] = {"prog", "--backend", "zns", "--other=mixed"};
  EXPECT_EQ(enum_flag(4, const_cast<char**>(argv), "--backend", choices, 0),
            1u);
  EXPECT_EQ(enum_flag(4, const_cast<char**>(argv), "--other", choices, 0),
            2u);
  // Absent flag: the fallback decides, whichever index it names.
  EXPECT_EQ(enum_flag(4, const_cast<char**>(argv), "--missing", choices, 0),
            0u);
  EXPECT_EQ(enum_flag(4, const_cast<char**>(argv), "--missing", choices, 2),
            2u);
}

TEST(Cli, DoubleFlagParsesBothSpellingsWithinTheRange) {
  const char* argv[] = {"prog", "--rate", "0.25", "--share=1e-3", "--top",
                        "1"};
  EXPECT_EQ(double_flag(6, const_cast<char**>(argv), "--rate", 0.5, 0.0, 1.0),
            0.25);
  EXPECT_EQ(double_flag(6, const_cast<char**>(argv), "--share", 0.5, 0.0, 1.0),
            1e-3);
  // The range is inclusive at both ends.
  EXPECT_EQ(double_flag(6, const_cast<char**>(argv), "--top", 0.5, 0.0, 1.0),
            1.0);
  // Absent flag: the fallback, even outside the range.
  EXPECT_EQ(
      double_flag(6, const_cast<char**>(argv), "--missing", 7.0, 0.0, 1.0),
      7.0);
}

TEST(Cli, UnknownFlagAcceptsDeclaredFlagsInBothSpellings) {
  const std::vector<const char*> valued = {"--jobs", "--trace-out"};
  const std::vector<const char*> switches = {"--quick"};
  // The word after a valued flag is its value, even a negative number or
  // one that looks like a flag.
  const char* argv[] = {"prog",    "--jobs",       "3",  "--quick",
                        "--jobs",  "-1",           "--trace-out",
                        "--quick", "--trace-out=a.json"};
  EXPECT_EQ(unknown_flag(9, const_cast<char**>(argv), valued, switches),
            nullptr);
  const char* none[] = {"prog"};
  EXPECT_EQ(unknown_flag(1, const_cast<char**>(none), valued, switches),
            nullptr);
  // A valued flag as the last word: its missing value is flag_value()'s
  // error, not a stray word.
  const char* last[] = {"prog", "--jobs"};
  EXPECT_EQ(unknown_flag(2, const_cast<char**>(last), valued, switches),
            nullptr);
}

TEST(Cli, UnknownFlagNamesTheFirstUndeclaredFlag) {
  const std::vector<const char*> valued = {"--jobs"};
  const std::vector<const char*> switches = {"--quick"};
  const char* shapes[] = {
      "--bogus",      // never declared
      "--job",        // a prefix of a declared flag
      "--jobsx",      // a declared flag plus trailing junk
      "--jobsx=2",    // ... in the --name=V spelling
      "--Quick",      // no case folding
      "--",           // a bare separator
      "--=1",         // an empty name
  };
  for (const char* bad : shapes) {
    const char* argv[] = {"prog", "--jobs", "2", bad, "--other"};
    EXPECT_EQ(unknown_flag(5, const_cast<char**>(argv), valued, switches),
              bad)
        << bad;
  }
  const char* two[] = {"prog", "--first", "--second"};
  EXPECT_STREQ(unknown_flag(3, const_cast<char**>(two), valued, switches),
               "--first");
}

TEST(Cli, UnknownFlagNamesAStrayWord) {
  const std::vector<const char*> valued = {"--experiment", "--jobs"};
  const std::vector<const char*> switches = {"--quick"};
  struct Case {
    std::vector<const char*> args;
    const char* stray;
  };
  const Case cases[] = {
      {{"E1", "--experiment", "E7"}, "E1"},         // positional first
      {{"--quick", "stray"}, "stray"},              // after a switch
      {{"--jobs", "2", "4"}, "4"},                  // a second value
      {{"--jobs=2", "4"}, "4"},                     // after --name=V
      {{"--experiment", "E1", "E2", "--quick"}, "E2"},
  };
  for (const Case& c : cases) {
    std::vector<const char*> argv = {"prog"};
    argv.insert(argv.end(), c.args.begin(), c.args.end());
    EXPECT_STREQ(unknown_flag(static_cast<int>(argv.size()),
                              const_cast<char**>(argv.data()), valued,
                              switches),
                 c.stray)
        << c.stray;
  }
}

TEST(Cli, FlagPresentRejectsAValue) {
  const char* argv[] = {"prog", "--quick", "--strictly", "--jobs=2"};
  EXPECT_TRUE(flag_present(4, const_cast<char**>(argv), "--quick"));
  EXPECT_FALSE(flag_present(4, const_cast<char**>(argv), "--strict"));
  EXPECT_FALSE(flag_present(4, const_cast<char**>(argv), "--quiet"));
  // unknown_flag() accepts `--quick=1` for a declared --quick; the boolean
  // reader must not then read it as absent and run the defaults.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* valued : {"--quick=1", "--quick=", "--quick=0"}) {
    const char* with_value[] = {"prog", "--jobs", "2", valued};
    EXPECT_EXIT(
        (void)flag_present(4, const_cast<char**>(with_value), "--quick"),
        testing::ExitedWithCode(2), "--quick takes no value")
        << valued;
  }
}

}  // namespace
}  // namespace isp::exec
