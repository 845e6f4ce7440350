// Deterministic span traces in the Chrome-trace / Perfetto JSON format.
//
// One emitter for every trace the repository produces: the single-run
// exporter (runtime::to_chrome_trace) and the whole-fleet serving trace
// (serve::to_fleet_trace) both walk their report once and stream each event
// straight into a TraceWriter's output string — there is no intermediate
// event list.  Events come out in call order; the callers walk their data
// deterministically, so a trace is byte-identical across runs and `--jobs`
// values.
//
// Format: a JSON array of trace events (the "JSON Array Format" Perfetto and
// chrome://tracing both load).  Complete spans use ph "X" with microsecond
// ts/dur; instant events use ph "i" with scope "t"(hread).  Tracks map to
// tid strings under one pid, which both UIs render as named rows.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace isp::obs {

/// Append `v` exactly as printf "%.6f" renders it in the C locale, without
/// the format-string parse or the locale lookup: exact integer arithmetic
/// for the magnitudes traces carry, std::to_chars fixed with precision 6
/// (specified as that conversion) for the rest.  Every fixed-point number
/// in a trace goes through here.
void append_fixed6(std::string& out, double v);

/// Append `s` as the body of a JSON string (RFC 8259 §7): `"` and `\`
/// backslash-escaped, newline and tab as \n and \t, every other byte below
/// 0x20 as \u00XX.  A string with none of these is appended whole.
void append_escaped(std::string& out, std::string_view s);

/// Streams trace events into one JSON string.  Each event is one call to
/// complete() or instant(), followed by its args; the next event or
/// finish() closes it:
///
///   TraceWriter w(bytes_hint);
///   w.complete("csd0", "job7", start_s, dur_s).arg_u64("tenant", 2);
///   w.instant("faults", "fault:dma", t_s).arg_fixed6("penalty_us", p);
///   std::string json = w.finish();
///
/// Track, name and key views are copied before the call returns.
class TraceWriter {
 public:
  /// Reserve `reserve_bytes` of output up front.  Reserved pages the trace
  /// never reaches cost address space, not memory.
  explicit TraceWriter(std::size_t reserve_bytes = 0);

  /// Open a complete ("X") span.  A span with duration <= 0 is skipped
  /// together with the args that follow it (a zero-length slice renders as
  /// nothing but still widens the row).
  TraceWriter& complete(std::string_view track, std::string_view name,
                        double start_s, double duration_s);

  /// Open an instant ("i") event.
  TraceWriter& instant(std::string_view track, std::string_view name,
                       double ts_s);

  /// Args of the open event, rendered in call order.
  TraceWriter& arg_u64(std::string_view key, std::uint64_t value);
  TraceWriter& arg_fixed6(std::string_view key, double value);
  /// `json` verbatim — a literal such as true or false.
  TraceWriter& arg_raw(std::string_view key, std::string_view json);
  /// `value` as an escaped JSON string.
  TraceWriter& arg_str(std::string_view key, std::string_view value);

  /// Close the last event and the array, and hand over the JSON.
  [[nodiscard]] std::string finish();

 private:
  void open(std::string_view track, std::string_view name, bool complete,
            double ts_us);
  void close_event();
  /// Start one arg: false when the open event was skipped.
  bool key(std::string_view key);

  std::string out_;
  bool first_ = true;       // no event written yet
  bool open_ = false;       // an event's closing brace is still owed
  bool has_args_ = false;   // ... and so is its args object's
  bool skipping_ = false;   // the open event was dropped; ignore its args
};

/// Write `json` to `path`; throws isp::Error on IO failure.
void write_trace_file(const std::string& path, std::string_view json);

}  // namespace isp::obs
