// Shared pieces of the repository benchmark: options, the result record the
// binary prints, and the small timing helpers every workload uses.
//
// Each workload is a closed loop with one client: set up its inputs from the
// seed, then call into the library until the time budget is spent, timing
// each blocking call and checking every output.  With tracing off it reports
// the end-to-end metrics; with tracing on it alternates untraced and traced
// iterations and reports per-layer self times plus the tracing overhead
// between the two.
//
// Every iteration of a run repeats the same work, so each workload splits an
// iteration into fixed units (one call, or a fixed slice of calls) and keeps
// each unit's fastest time over the run (BestTimes).  Interference from the
// rest of the host only ever adds time, so the fastest time of a short unit
// is far steadier than a mean or median over a long run.  The host's core
// speed also drifts from minute to minute; a fixed speed probe, run between
// iterations, rescales every reported time to one reference speed
// (SpeedProbe).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline double seconds_between(Clock::time_point t0,
                                            Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
};

/// Inputs differ per seed, but only through `seed mod kVariants`, so the
/// deterministic work counters and output digests of every seed can be
/// recorded ahead of time (perfbench/expected.json) and diffed exactly.
inline constexpr std::uint64_t kVariants = 16;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;  // checked calls or iterations
  std::uint64_t failed = 0;     // of those, how many failed a check
  std::vector<Metric> metrics;
  /// Deterministic work counters of one iteration (identical on every
  /// iteration of a seed; diffed against the recorded values by run.py).
  std::map<std::string, std::uint64_t> counters;
  /// Output digests of one iteration, hex strings, diffed likewise.
  std::map<std::string, std::string> digests;
  std::vector<std::string> errors;  // first few check failures, for stderr

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[nodiscard]] inline double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

/// Relative cost of the traced calls over the untraced ones (mean per call).
[[nodiscard]] inline double overhead(const std::vector<double>& traced,
                                     const std::vector<double>& untraced) {
  if (traced.empty() || untraced.empty()) return 0.0;
  return (sum(traced) / static_cast<double>(traced.size())) /
             (sum(untraced) / static_cast<double>(untraced.size())) -
         1.0;
}

/// Nearest-rank percentile, q in (0, 1].
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// The fastest time seen for each unit of an iteration.  A unit is a fixed
/// slice of the iteration's work, numbered in the order the iteration runs
/// it, so unit k does the same work in every iteration.  Memory is one
/// number per unit, whatever the number of iterations.
class BestTimes {
 public:
  void add(std::size_t unit, double seconds) {
    if (unit >= best_.size()) {
      best_.resize(unit + 1, std::numeric_limits<double>::infinity());
    }
    best_[unit] = std::min(best_[unit], seconds);
  }
  [[nodiscard]] const std::vector<double>& units() const { return best_; }
  /// A whole iteration with every unit at its fastest.
  [[nodiscard]] double total() const { return sum(best_); }

 private:
  std::vector<double> best_;
};

/// A fixed piece of code (a serial multiply-xorshift chain, independent of
/// the library) timed between iterations.  scale() maps this run's times to
/// a reference speed: the probe's low-decile time over the run, against the
/// time the probe takes at the reference speed.  Multiplying a time by
/// scale() therefore cancels drift in the host's core speed between runs.
class SpeedProbe {
 public:
  /// Probe time at the reference speed: its typical low decile on the
  /// 4-vCPU Intel Xeon VM the bounds in BENCHMARK.json were set on.
  static constexpr double kReferenceSeconds = 74e-6;

  /// Take one probe point (about 1.2 ms) unless the last one was taken
  /// less than 0.1 s ago.
  void maybe_sample();
  [[nodiscard]] double scale() const;
  /// Print the probe's points and scale to stderr.
  void log() const;

 private:
  std::vector<double> points_;  // fastest of a few kernel runs, per point
  Clock::time_point last_{};
};

[[nodiscard]] std::string hex64(std::uint64_t v);

/// Process peak resident set size in MiB.
[[nodiscard]] double peak_rss_mb();

/// Deterministic 64-bit mixer for the input generators (splitmix64).
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Set-up time samples.  The workload times its real set-up once, then
/// rebuilds its inputs (and throws the copies away) at evenly spaced points
/// of the measured loop, so the median samples the same machine conditions
/// as the measured calls rather than only the first moments of the process.
/// Like every other unit, a point keeps the fastest of a few builds; a
/// build shorter than a millisecond is timed as the mean of a batch of
/// builds lasting at least that long.
class SetupTimes {
 public:
  SetupTimes(double budget, int samples) : step_(budget / samples) {}

  /// Time one build and return what it built.
  template <typename Build>
  auto measure(Build&& build) {
    const auto t0 = Clock::now();
    auto built = build();
    times_.push_back(seconds_since(t0));
    return built;
  }

  /// Time kRebuilds batches of builds back to back and keep the fastest
  /// per-build time.
  template <typename Build>
  void remeasure(Build&& build) {
    constexpr double kMinBatchSeconds = 1e-3;
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < kRebuilds; ++i) {
      const auto t0 = Clock::now();
      int builds = 0;
      do {
        (void)build();
        ++builds;
      } while (seconds_since(t0) < kMinBatchSeconds);
      best = std::min(best, seconds_since(t0) / builds);
    }
    times_.push_back(best);
  }

  /// Whether the loop, `elapsed` seconds in, has reached the next point.
  bool due(double elapsed) {
    if (elapsed < next_) return false;
    next_ += step_;
    return true;
  }

  [[nodiscard]] double median_seconds() const { return median(times_); }

 private:
  static constexpr int kRebuilds = 3;
  double step_;
  double next_ = 0.0;
  std::vector<double> times_;
};

/// How many set-up samples a run takes, spread over its measured loop.
inline constexpr int kSetupSamples = 16;

/// The measured loop every workload shares.  `step(iteration, tracer)` runs
/// one iteration, untraced when `tracer` is null.  With tracing off it runs
/// untraced steps for the whole budget and calls `between(elapsed)` after
/// each.  With tracing on it alternates untraced and traced steps, so drift
/// in machine speed during the run hits both sides alike, until the budget
/// is spent or the tracer is full.  Either way the speed probe runs between
/// iterations.  Returns the number of traced steps.
template <typename Step, typename Between>
std::uint64_t measured_loop(const Options& options, Tracer& tracer,
                            SpeedProbe& probe, Step&& step,
                            Between&& between) {
  std::uint64_t iteration = 0;
  std::uint64_t traced = 0;
  const auto t0 = Clock::now();
  while (true) {
    step(iteration++, nullptr);
    probe.maybe_sample();
    const double elapsed = seconds_since(t0);
    if (!options.trace) {
      between(elapsed);
      if (elapsed >= options.seconds && iteration >= 2) return 0;
      continue;
    }
    step(iteration++, &tracer);
    probe.maybe_sample();
    ++traced;
    if ((seconds_since(t0) >= options.seconds || tracer.full()) &&
        traced >= 2) {
      return traced;
    }
  }
}

Result run_pipeline(const Options& options);
Result run_serve_hot(const Options& options);
Result run_storage_churn(const Options& options);

}  // namespace perfbench
