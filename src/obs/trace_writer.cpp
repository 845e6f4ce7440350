#include "obs/trace_writer.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>

#include <sys/mman.h>

#include "common/error.hpp"

namespace isp::obs {

namespace {

// GCC and Clang on 64-bit targets; __extension__ keeps -Wpedantic quiet.
__extension__ using Uint128 = unsigned __int128;

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/// True when one of the bytes of `w` needs_escape(): a byte below 0x20, a
/// '"' or a '\'.  Each term is the exact "some byte is below n" bit trick,
/// so the word-wide answer is exact.
template <class Word>
bool word_needs_escape(Word w) {
  constexpr Word kOnes = static_cast<Word>(~Word{0}) / 0xff;
  constexpr Word kHigh = kOnes * 0x80;
  const auto below = [](Word x, Word n) {
    return static_cast<Word>((x - kOnes * n) & ~x & kHigh);
  };
  return (below(w, 0x20) | below(w ^ (kOnes * '"'), 1) |
          below(w ^ (kOnes * '\\'), 1)) != 0;
}

/// Copy one word from `in` to `out` when none of its bytes needs escaping.
template <class Word>
bool copy_if_clean(char* out, const char* in) {
  Word w = 0;
  std::memcpy(&w, in, sizeof(w));
  if (word_needs_escape(w)) return false;
  std::memcpy(out, &w, sizeof(w));
  return true;
}

/// Escaping writes at most this many bytes per input byte (\u00XX).
constexpr std::size_t kMaxEscape = 6;

constexpr char kHex[] = "0123456789abcdef";

/// Write c at p, JSON-escaped when needs_escape(c); returns the end.
char* escape_char(char* p, char c) {
  if (!needs_escape(c)) {
    *p = c;
    return p + 1;
  }
  *p++ = '\\';
  switch (c) {
    case '"': *p++ = '"'; break;
    case '\\': *p++ = '\\'; break;
    case '\n': *p++ = 'n'; break;
    case '\t': *p++ = 't'; break;
    default:
      *p++ = 'u';
      *p++ = '0';
      *p++ = '0';
      *p++ = kHex[static_cast<unsigned char>(c) >> 4];
      *p++ = kHex[static_cast<unsigned char>(c) & 0xf];
  }
  return p;
}

/// Write s escaped at p, which has room for kMaxEscape·s.size() bytes;
/// returns the end.  A clean prefix is copied a word at a time, so output
/// offsets equal input offsets up to the first word that needs escaping
/// and a last, overlapping word lands in place; the rest goes byte by
/// byte.
char* escape_to(char* p, std::string_view s) {
  const char* in = s.data();
  const std::size_t n = s.size();
  std::size_t i = 0;  // bytes copied verbatim so far
  if (n >= 8) {
    while (i + 8 <= n && copy_if_clean<std::uint64_t>(p + i, in + i)) i += 8;
    if (i + 8 > n &&
        (i == n || copy_if_clean<std::uint64_t>(p + n - 8, in + n - 8))) {
      return p + n;
    }
  } else if (n >= 4 && copy_if_clean<std::uint32_t>(p, in) &&
             copy_if_clean<std::uint32_t>(p + n - 4, in + n - 4)) {
    return p + n;
  }
  p += i;
  for (; i < n; ++i) p = escape_char(p, in[i]);
  return p;
}

/// The eight decimal digits of n < 10^8, leading zeros included, as ASCII
/// bytes in memory order on a little-endian target (first digit in the low
/// byte): both four-digit halves split into hundreds, then tens, with the
/// exact multiply-shift divisions x·10486 >> 20 = x / 100 (x < 10^4) and
/// x·103 >> 10 = x / 10 (x < 100), four lanes at a time.
std::uint64_t eight_digits(std::uint32_t n) {
  static_assert(std::endian::native == std::endian::little);
  std::uint64_t v = n / 10000 | std::uint64_t{n % 10000} << 32;
  const std::uint64_t hundreds = (v * 10486 >> 20) & 0x0000007f0000007fULL;
  v = hundreds | (v - hundreds * 100) << 16;
  const std::uint64_t tens = (v * 103 >> 10) & 0x000f000f000f000fULL;
  v = tens | (v - tens * 10) << 8;
  return v + 0x3030303030303030ULL;
}

/// Write n < 10^8 in decimal at p, without leading zeros ("0" for zero),
/// and return the end.  Stores eight bytes: p needs room for eight.
char* put_upto8(char* p, std::uint32_t n) {
  const std::uint64_t digits = eight_digits(n);
  // Leading '0' bytes are the low bytes whose digit value is zero.
  const int zeros =
      std::min(7, std::countr_zero(digits - 0x3030303030303030ULL) / 8);
  const std::uint64_t kept = digits >> (8 * zeros);
  std::memcpy(p, &kept, 8);
  return p + 8 - zeros;
}

/// Room fixed6_to() needs: the widest double in fixed notation is a sign,
/// 309 integer digits, the point and six decimals.
constexpr std::size_t kFixed6Bytes = 320;

/// Write v at p exactly as printf "%.6f" renders it in the C locale, and
/// return the end.
///
/// Exact integer path for 2^-30 <= |v| < 2^44, every trace timestamp and
/// duration in practice.  |v| = m·2^e with a 53-bit m, so |v|·10^6 =
/// (m·15625)·2^(e+6) and e + 6 <= -3 here: one 128-bit shift gives the
/// integer part, and the shifted-out bits decide the rounding exactly, half
/// to even as printf rounds.  Below 2^-30 (< 5e-7) the value rounds to
/// zero; 2^44·10^6 still fits 64 bits.  Larger and non-finite values take
/// std::to_chars fixed with precision 6, specified as that conversion.
char* fixed6_to(char* p, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  constexpr int kOne = 1023;  // biased exponent of 1.0
  if (biased >= kOne + 44) {
    const auto [end, ec] =
        std::to_chars(p, p + kFixed6Bytes, v, std::chars_format::fixed, 6);
    ISP_CHECK(ec == std::errc{}, "fixed-point formatting overflowed");
    return end;
  }
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
  const std::uint64_t whole = scaled / 1000000;
  const std::uint64_t frac = scaled % 1000000;
  if ((bits >> 63) != 0) *p++ = '-';  // printf keeps the sign of -0.0
  // Integer part below 2^44 (14 digits), in two pieces of up to eight.
  if (whole < 100000000) {
    p = put_upto8(p, static_cast<std::uint32_t>(whole));
  } else {
    p = put_upto8(p, static_cast<std::uint32_t>(whole / 100000000));
    const std::uint64_t low =
        eight_digits(static_cast<std::uint32_t>(whole % 100000000));
    std::memcpy(p, &low, 8);
    p += 8;
  }
  // The six decimals are the last six of eight digits; the two bytes
  // stored past them are overwritten or past the end.
  const std::uint64_t decimals =
      eight_digits(static_cast<std::uint32_t>(frac)) >> 16;
  *p = '.';
  std::memcpy(p + 1, &decimals, 8);
  return p + 7;
}

/// Ask for huge pages behind the whole 2 MiB pages of `out`'s reserved
/// buffer.  Writing a large trace into fresh memory otherwise takes one
/// page fault per 4 KiB: serve_hot's 42.6 MB fleet trace took 10 397 faults
/// and about 25 ms of system time per export, and with the advice 233
/// faults and about 10 ms.  Only a hint: where it is unsupported or refused
/// the pages stay small.
void advise_huge_pages(std::string& out) {
#ifdef MADV_HUGEPAGE
  constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
  const auto begin = reinterpret_cast<std::uintptr_t>(out.data());
  const std::uintptr_t lo = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t hi = (begin + out.capacity()) & ~(kHugePage - 1);
  if (hi > lo) {
    (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
#else
  (void)out;
#endif
}

/// Copy a string literal's characters to p; returns the end.
template <std::size_t N>
char* put_literal(char* p, const char (&s)[N]) {
  std::memcpy(p, s, N - 1);
  return p + N - 1;
}

}  // namespace

void append_fixed6(std::string& out, double v) {
  char buf[kFixed6Bytes];
  out.append(buf, fixed6_to(buf, v));
}

TraceWriter::TraceWriter(std::size_t reserve_bytes) : event_(4096) {
  out_.reserve(reserve_bytes);
  advise_huge_pages(out_);
  out_ += "[";
}

char* TraceWriter::room(std::size_t n) {
  if (len_ + n > event_.size()) event_.resize(2 * (len_ + n));
  return event_.data() + len_;
}

void TraceWriter::commit(const char* end) {
  len_ = static_cast<std::size_t>(end - event_.data());
}

void TraceWriter::close_event() {
  if (!open_) return;
  char* p = room(2);
  *p++ = '}';
  if (has_args_) *p++ = '}';
  out_.append(event_.data(), static_cast<std::size_t>(p - event_.data()));
  len_ = 0;
  open_ = false;
  has_args_ = false;
}

void TraceWriter::open(std::string_view track, std::string_view name,
                       bool complete, double ts_us) {
  close_event();
  skipping_ = false;
  // The fixed text, the escaped name and track, and one number.
  char* p =
      room(64 + kMaxEscape * (name.size() + track.size()) + kFixed6Bytes);
  if (!first_) *p++ = ',';
  first_ = false;
  p = put_literal(p, "\n{\"name\":\"");
  p = escape_to(p, name);
  p = complete ? put_literal(p, "\",\"ph\":\"X\"")
               : put_literal(p, "\",\"ph\":\"i\",\"s\":\"t\"");
  p = put_literal(p, ",\"pid\":1,\"tid\":\"");
  p = escape_to(p, track);
  p = put_literal(p, "\",\"ts\":");
  commit(fixed6_to(p, ts_us));
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
  char* p = room(8 + kFixed6Bytes);
  p = put_literal(p, ",\"dur\":");
  commit(fixed6_to(p, duration_s * 1e6));
  return *this;
}

TraceWriter& TraceWriter::instant(std::string_view track,
                                  std::string_view name, double ts_s) {
  open(track, name, false, ts_s * 1e6);
  return *this;
}

char* TraceWriter::key(std::string_view key, std::size_t value_bytes) {
  if (skipping_) return nullptr;
  ISP_CHECK(open_, "trace arg '" << key << "' outside an event");
  char* p = room(16 + kMaxEscape * key.size() + value_bytes);
  p = has_args_ ? put_literal(p, ",\"") : put_literal(p, ",\"args\":{\"");
  has_args_ = true;
  p = escape_to(p, key);
  return put_literal(p, "\":");
}

TraceWriter& TraceWriter::arg_u64(std::string_view key, std::uint64_t value) {
  constexpr std::size_t kDigits = 20;  // UINT64_MAX
  if (char* p = this->key(key, kDigits)) {
    commit(std::to_chars(p, p + kDigits, value).ptr);
  }
  return *this;
}

TraceWriter& TraceWriter::arg_fixed6(std::string_view key, double value) {
  if (char* p = this->key(key, kFixed6Bytes)) commit(fixed6_to(p, value));
  return *this;
}

TraceWriter& TraceWriter::arg_raw(std::string_view key,
                                  std::string_view json) {
  if (char* p = this->key(key, json.size())) {
    std::memcpy(p, json.data(), json.size());
    commit(p + json.size());
  }
  return *this;
}

TraceWriter& TraceWriter::arg_str(std::string_view key,
                                  std::string_view value) {
  if (char* p = this->key(key, 2 + kMaxEscape * value.size())) {
    *p++ = '"';
    p = escape_to(p, value);
    *p++ = '"';
    commit(p);
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
