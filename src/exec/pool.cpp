#include "exec/pool.hpp"

#include <atomic>
#include <exception>
#include <thread>

namespace isp::exec {

unsigned default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

void run_indexed(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& task) {
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    // Declared after errors and next, so every worker joins (here, or on
    // the way out if a thread fails to start) before they are destroyed.
    std::vector<std::jthread> workers;
    for (unsigned w = 1; w < threads; ++w) workers.emplace_back(drain);
    drain();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace isp::exec
