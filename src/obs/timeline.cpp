#include "obs/timeline.hpp"

#include <charconv>
#include <fstream>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace isp::obs {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
}

}  // namespace

void append_fixed6(std::string& out, double v) {
  // Room for the widest double in fixed notation: sign, 309 integer
  // digits, the point and six decimals.
  char buf[320];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 6);
  ISP_CHECK(ec == std::errc{}, "fixed-point formatting overflowed");
  out.append(buf, end);
}

std::string fixed6(double v) {
  std::string out;
  append_fixed6(out, v);
  return out;
}

void Timeline::complete(
    std::string track, std::string name, double start_s, double duration_s,
    std::vector<std::pair<std::string, std::string>> args) {
  if (duration_s <= 0.0) return;
  TraceEvent e;
  e.kind = TraceEvent::Kind::Complete;
  e.track = std::move(track);
  e.name = std::move(name);
  e.ts_us = start_s * 1e6;
  e.dur_us = duration_s * 1e6;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void Timeline::instant(
    std::string track, std::string name, double ts_s,
    std::vector<std::pair<std::string, std::string>> args) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::Instant;
  e.track = std::move(track);
  e.name = std::move(name);
  e.ts_us = ts_s * 1e6;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

std::string Timeline::to_json() const {
  std::string out;
  out.reserve(64 + 160 * events_.size());
  out += "[";
  bool first = true;
  for (const auto& e : events_) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":\"";
    append_escaped(out, e.name);
    out += "\",\"ph\":\"";
    out += e.kind == TraceEvent::Kind::Complete ? "X" : "i";
    out += "\"";
    if (e.kind == TraceEvent::Kind::Instant) out += ",\"s\":\"t\"";
    out += ",\"pid\":1,\"tid\":\"";
    append_escaped(out, e.track);
    out += "\",\"ts\":";
    append_fixed6(out, e.ts_us);
    if (e.kind == TraceEvent::Kind::Complete) {
      out += ",\"dur\":";
      append_fixed6(out, e.dur_us);
    }
    if (!e.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : e.args) {
        if (!first_arg) out += ",";
        first_arg = false;
        out += "\"";
        append_escaped(out, key);
        out += "\":";
        out += value;
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]";
  return out;
}

std::uint64_t Timeline::digest() const {
  return fnv1a(kFnvOffset, to_json());
}

void Timeline::write(const std::string& path) const {
  std::ofstream out(path);
  ISP_CHECK(out.good(), "cannot open trace file '" << path << "'");
  out << to_json();
  ISP_CHECK(out.good(), "failed writing trace file '" << path << "'");
}

}  // namespace isp::obs
