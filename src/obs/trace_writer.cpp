#include "obs/trace_writer.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <fstream>

#include "common/error.hpp"

namespace isp::obs {

namespace {

// GCC and Clang on 64-bit targets; __extension__ keeps -Wpedantic quiet.
__extension__ using Uint128 = unsigned __int128;

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

}  // namespace

void append_fixed6(std::string& out, double v) {
  // Exact fast path for 2^-30 <= |v| < 2^44, every trace timestamp and
  // duration in practice.  |v| = m·2^e with a 53-bit m, so |v|·10^6 =
  // (m·15625)·2^(e+6) and e + 6 <= -3 here: one 128-bit shift gives the
  // integer part, and the shifted-out bits decide the rounding exactly,
  // half to even as printf rounds.  Below 2^-30 (< 5e-7) the value rounds
  // to zero; 2^44·10^6 still fits 64 bits.
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  constexpr int kOne = 1023;  // biased exponent of 1.0
  if (biased < kOne + 44) {
    std::uint64_t scaled = 0;  // |v|·10^6, rounded
    if (biased >= kOne - 30) {
      constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;
      const Uint128 x =
          static_cast<Uint128>((bits & (kHidden - 1)) | kHidden) * 15625;
      const int k = kOne + 52 - 6 - biased;  // 3 <= k <= 76
      const Uint128 q = x >> k;
      const Uint128 rem = x - (q << k);
      const Uint128 half = static_cast<Uint128>(1) << (k - 1);
      scaled = static_cast<std::uint64_t>(q);
      if (rem > half || (rem == half && (scaled & 1) != 0)) ++scaled;
    }
    char buf[32];
    char* p = buf;
    if ((bits >> 63) != 0) *p++ = '-';  // printf keeps the sign of -0.0
    p = std::to_chars(p, buf + sizeof(buf), scaled / 1000000).ptr;
    *p++ = '.';
    auto frac = static_cast<std::uint32_t>(scaled % 1000000);
    for (int i = 6; i-- > 0; frac /= 10) {
      p[i] = static_cast<char>('0' + frac % 10);
    }
    out.append(buf, p + 6);
    return;
  }
  // Room for the widest double in fixed notation: sign, 309 integer
  // digits, the point and six decimals.
  char buf[320];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 6);
  ISP_CHECK(ec == std::errc{}, "fixed-point formatting overflowed");
  out.append(buf, end);
}

void append_escaped(std::string& out, std::string_view s) {
  if (std::none_of(s.begin(), s.end(), needs_escape)) {
    out.append(s);
    return;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[static_cast<unsigned char>(c) >> 4];
          out += kHex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
    }
  }
}

TraceWriter::TraceWriter(std::size_t reserve_bytes) {
  out_.reserve(reserve_bytes);
  out_ += "[";
}

void TraceWriter::close_event() {
  if (!open_) return;
  if (has_args_) out_ += "}";
  out_ += "}";
  open_ = false;
  has_args_ = false;
}

void TraceWriter::open(std::string_view track, std::string_view name,
                       bool complete, double ts_us) {
  close_event();
  skipping_ = false;
  if (!first_) out_ += ",";
  first_ = false;
  out_ += "\n{\"name\":\"";
  append_escaped(out_, name);
  out_ += complete ? "\",\"ph\":\"X\"" : "\",\"ph\":\"i\",\"s\":\"t\"";
  out_ += ",\"pid\":1,\"tid\":\"";
  append_escaped(out_, track);
  out_ += "\",\"ts\":";
  append_fixed6(out_, ts_us);
  open_ = true;
}

TraceWriter& TraceWriter::complete(std::string_view track,
                                   std::string_view name, double start_s,
                                   double duration_s) {
  if (duration_s <= 0.0) {
    close_event();
    skipping_ = true;
    return *this;
  }
  open(track, name, true, start_s * 1e6);
  out_ += ",\"dur\":";
  append_fixed6(out_, duration_s * 1e6);
  return *this;
}

TraceWriter& TraceWriter::instant(std::string_view track,
                                  std::string_view name, double ts_s) {
  open(track, name, false, ts_s * 1e6);
  return *this;
}

bool TraceWriter::key(std::string_view key) {
  if (skipping_) return false;
  ISP_CHECK(open_, "trace arg '" << key << "' outside an event");
  out_ += has_args_ ? ",\"" : ",\"args\":{\"";
  has_args_ = true;
  append_escaped(out_, key);
  out_ += "\":";
  return true;
}

TraceWriter& TraceWriter::arg_u64(std::string_view key, std::uint64_t value) {
  if (this->key(key)) {
    char buf[20];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  }
  return *this;
}

TraceWriter& TraceWriter::arg_fixed6(std::string_view key, double value) {
  if (this->key(key)) append_fixed6(out_, value);
  return *this;
}

TraceWriter& TraceWriter::arg_raw(std::string_view key,
                                  std::string_view json) {
  if (this->key(key)) out_.append(json);
  return *this;
}

TraceWriter& TraceWriter::arg_str(std::string_view key,
                                  std::string_view value) {
  if (this->key(key)) {
    out_ += "\"";
    append_escaped(out_, value);
    out_ += "\"";
  }
  return *this;
}

std::string TraceWriter::finish() {
  close_event();
  out_ += "\n]";
  return std::move(out_);
}

void write_trace_file(const std::string& path, std::string_view json) {
  std::ofstream out(path);
  ISP_CHECK(out.good(), "cannot open trace file '" << path << "'");
  out << json;
  ISP_CHECK(out.good(), "failed writing trace file '" << path << "'");
}

}  // namespace isp::obs
