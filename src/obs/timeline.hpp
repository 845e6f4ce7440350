// Deterministic span timelines in the Chrome-trace / Perfetto JSON format.
//
// One emitter for every trace the repository produces: the single-run
// exporter (runtime::to_chrome_trace) and the whole-fleet serving timeline
// (serve::to_fleet_trace) both build a Timeline and serialise through
// to_json().  Events are kept in insertion order — the caller walks its data
// deterministically, so the serialised trace is byte-identical across runs
// and `--jobs` values; digest() is the FNV-1a fold over the serialised
// bytes, the one word a determinism test needs to compare.
//
// Format: a JSON array of trace events (the "JSON Array Format" Perfetto and
// chrome://tracing both load).  Complete spans use ph "X" with microsecond
// ts/dur; instant events use ph "i" with scope "t"(hread).  Tracks map to
// tid strings under one pid, which both UIs render as named rows.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace isp::obs {

/// Append `v` exactly as printf "%.6f" renders it in the C locale
/// (std::to_chars fixed with precision 6 is specified as that conversion),
/// without the format-string parse or the locale lookup.  Every fixed-point
/// number in a trace goes through here.
void append_fixed6(std::string& out, double v);

/// append_fixed6() into a fresh string, for pre-rendered trace args.
[[nodiscard]] std::string fixed6(double v);

/// One trace event.  `args` pairs are (key, already-rendered JSON value) —
/// pass "3" or "\"csd\"" — kept in insertion order.
struct TraceEvent {
  enum class Kind : std::uint8_t { Complete, Instant };
  Kind kind = Kind::Complete;
  std::string track;  // rendered as the tid row label
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;  // Complete events only
  std::vector<std::pair<std::string, std::string>> args;
};

class Timeline {
 public:
  /// Add a complete ("X") span; silently dropped when duration <= 0 (a
  /// zero-length slice renders as nothing but still widens the row).
  void complete(std::string track, std::string name, double start_s,
                double duration_s,
                std::vector<std::pair<std::string, std::string>> args = {});

  /// Add an instant ("i") event.
  void instant(std::string track, std::string name, double ts_s,
               std::vector<std::pair<std::string, std::string>> args = {});

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Serialise as a Chrome-trace JSON array.  Deterministic: fixed numeric
  /// formatting, events in insertion order.
  [[nodiscard]] std::string to_json() const;

  /// FNV-1a over the serialised JSON.
  [[nodiscard]] std::uint64_t digest() const;

  /// Write to_json() to `path`; throws isp::Error on IO failure.
  void write(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace isp::obs
