// The speed probe: see SpeedProbe in bench.hpp.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "bench.hpp"

namespace perfbench {
namespace {

volatile std::uint64_t g_probe_sink = 0;

/// One kernel run: a serial chain of xorshift-multiply steps, so its time
/// is set by the core's clock and nothing the library does.
double run_kernel() {
  constexpr int kSteps = 40'000;
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < kSteps; ++i) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ULL;
  }
  g_probe_sink = x;
  return seconds_since(t0);
}

}  // namespace

void SpeedProbe::maybe_sample() {
  constexpr double kMinGap = 0.1;
  const auto now = Clock::now();
  if (!points_.empty() && seconds_between(last_, now) < kMinGap) return;
  // The fastest of a few back-to-back runs: a run the host interrupted
  // only ever reads slower.
  constexpr int kRuns = 16;
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kRuns; ++i) best = std::min(best, run_kernel());
  points_.push_back(best);
  last_ = Clock::now();
}

double SpeedProbe::scale() const {
  if (points_.empty()) return 1.0;
  return kReferenceSeconds / percentile(points_, 0.1);
}

void SpeedProbe::log() const {
  std::fprintf(stderr,
               "speed probe: %zu points, low decile %.3f us (reference %.3f "
               "us), times scaled by %.4f\n",
               points_.size(), 1e6 * percentile(points_, 0.1),
               1e6 * kReferenceSeconds, scale());
}

}  // namespace perfbench
