// In-memory span tracer for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around each public call
// into a layer: name, start, end, the enclosing span and the iteration id.
// They stay in memory until write() dumps them at exit.  A layer's self time
// is its spans' duration minus the part covered by their child spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  Tracer();

  /// Open a span under the innermost open one; returns its index.
  std::size_t begin(const char* name);
  void end(std::size_t span);

  void set_iteration(std::uint64_t iteration) { iteration_ = iteration; }

  /// Traced loops stop once this many spans are held (about 40 MiB).
  static constexpr std::size_t kMaxSpans = 1 << 20;
  [[nodiscard]] bool full() const { return spans_.size() >= kMaxSpans; }

  /// Self seconds per span name, summed over every recorded span.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Write every span as JSON; returns false if the file could not be
  /// written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;    // index into names_
    std::int64_t start = 0;    // ns since the tracer was created
    std::int64_t end = 0;
    std::int64_t parent = -1;  // index of the enclosing span, -1 at top
    std::uint64_t iteration = 0;
  };

  std::uint32_t intern(const char* name);
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<const char*> literals_;  // first pointer seen for each name
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t iteration_ = 0;
};

/// Scoped span; a null tracer records nothing (the untraced loops).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), span_(tracer ? tracer->begin(name) : 0) {}
  ~Scope() {
    if (tracer_) tracer_->end(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::size_t span_;
};

}  // namespace perfbench
