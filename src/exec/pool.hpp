// Deterministic parallel sweep execution.
//
// Every heavy harness in this repository — reproduce's experiments, the
// crash-point sweep, serve()'s profile batch and waves, the fuzz matrices —
// is an embarrassingly parallel batch of fully independent,
// seed-deterministic simulations.  `run_batch` is the one entry point they
// use: fan N independent tasks across threads while guaranteeing
// byte-identical output to the serial order.
//
// The determinism contract:
//   * every task owns its state — its SystemModel (device, FTL, queues),
//     RNG, fault plan and trace buffer are constructed inside the task;
//     nothing mutable is shared between tasks;
//   * results land in a pre-sized vector slot indexed by submission order,
//     so collection order is independent of scheduling order;
//   * `jobs <= 1` (or a single task) runs the tasks inline on the calling
//     thread, in order — bit-for-bit the serial behaviour;
//   * every task runs even when another throws; after the batch settles,
//     the lowest-index exception is rethrown (again independent of thread
//     timing).  Every thread a batch starts is joined before it returns or
//     throws.
//
// A batch starts its threads and joins them; nothing persists between
// batches.  Tasks here are whole simulations (milliseconds and up), so a
// thread start per worker and one shared index counter cost nothing
// measurable.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace isp::exec {

/// Worker count used when the caller does not choose: hardware concurrency,
/// with a floor of 1 when the runtime cannot tell.
[[nodiscard]] unsigned default_jobs();

/// Run task(i) for every i in [0, n) on `threads` threads: `threads - 1`
/// workers plus the calling thread, which all take the next unclaimed index
/// until none is left, so at most `threads` tasks run at once.  Exceptions
/// thrown by tasks are captured; once every worker has joined, the
/// lowest-index exception is rethrown.
void run_indexed(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& task);

/// Fan `fn` over [0, n) and collect the results in submission order, with
/// at most min(jobs, n) tasks in flight.
/// `fn` must be safe to call concurrently from several threads, which in
/// this codebase means: construct every mutable thing (SystemModel,
/// EngineOptions, stores, RNGs) inside the call.  The result type must be
/// default-constructible and must not be `bool` (std::vector<bool> packs
/// bits, so concurrent per-element writes would race — return a struct).
template <typename Fn>
auto run_batch(std::size_t n, Fn&& fn, unsigned jobs = default_jobs())
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  static_assert(std::is_default_constructible_v<R>,
                "run_batch results are collected into a pre-sized vector");
  static_assert(!std::is_same_v<R, bool>,
                "std::vector<bool> packs bits; return a struct instead");
  std::vector<R> results(n);
  if (n == 0) return results;
  if (jobs <= 1 || n == 1) {
    // Serial path: on the calling thread, in order.
    for (std::size_t i = 0; i < n; ++i) results[i] = fn(i);
    return results;
  }
  run_indexed(n, static_cast<unsigned>(std::min<std::size_t>(jobs, n)),
              [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

/// Convenience overload: one task per config, results in config order.
template <typename Config, typename Fn>
auto run_batch(const std::vector<Config>& configs, Fn&& fn,
               unsigned jobs = default_jobs()) {
  return run_batch(
      configs.size(),
      [&](std::size_t i) { return fn(configs[i]); }, jobs);
}

}  // namespace isp::exec
