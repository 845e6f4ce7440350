// Observability subsystem: deterministic metrics registry (counters, gauges,
// log-bucketed histograms), the shared streaming Chrome-trace emitter,
// virtual-time snapshot series, and the trace exports built on them (runtime
// single-run trace, whole-fleet serving trace).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace_writer.hpp"
#include "runtime/active_runtime.hpp"
#include "runtime/trace.hpp"
#include "serve/observe.hpp"
#include "serve/server.hpp"
#include "system/model.hpp"

namespace isp {
namespace {

// --- Minimal JSON validator ----------------------------------------------
// Recursive-descent acceptance check: is `text` one well-formed JSON value?
// No DOM, no numbers parsed — just structure — which is exactly what the
// "every export is loadable JSON" contracts need.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      // RFC 8259 §7: control characters must be escaped.
      if (static_cast<unsigned char>(s_[pos_]) < 0x20) return false;
      if (s_[pos_] == '\\' && !escape()) return false;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  /// At a backslash: accept one valid escape, leaving pos_ on its last char.
  bool escape() {
    ++pos_;
    if (pos_ >= s_.size()) return false;
    if (s_[pos_] != 'u') {
      return std::char_traits<char>::find("\"\\/bfnrt", 8, s_[pos_]) !=
             nullptr;
    }
    for (int i = 0; i < 4; ++i) {
      ++pos_;
      if (pos_ >= s_.size() ||
          std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0) {
        return false;
      }
    }
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool valid_json(const std::string& text) { return JsonChecker(text).valid(); }

// --- Test-side trace reader ----------------------------------------------
// Reads back the one JSON shape the trace exporters write: an array of flat
// event objects whose only nested value is the "args" object.  Numbers keep
// their raw text beside the parsed value, so tests can compare bytes as
// well as values.  Throws on anything else, which fails the calling test.

struct ParsedEvent {
  std::string track;  // tid
  std::string name;
  char ph = '?';      // 'X' complete, 'i' instant
  std::string ts_raw;
  std::string dur_raw;  // empty for instants
  double ts_us = 0.0;
  double dur_us = 0.0;
  /// Arg key -> raw value text (strings keep their quotes).
  std::map<std::string, std::string> args;
};

class TraceReader {
 public:
  explicit TraceReader(const std::string& json) : s_(json) {}

  std::vector<ParsedEvent> events() {
    std::vector<ParsedEvent> out;
    expect('[');
    if (!take(']')) {
      do {
        out.push_back(event());
      } while (take(','));
      expect(']');
    }
    skip_ws();
    if (pos_ != s_.size()) fail("trailing bytes");
    return out;
  }

 private:
  ParsedEvent event() {
    ParsedEvent e;
    expect('{');
    do {
      const std::string key = string();
      expect(':');
      if (key == "args") {
        expect('{');
        if (!take('}')) {
          do {
            const std::string arg = string();
            expect(':');
            e.args[arg] = raw();
          } while (take(','));
          expect('}');
        }
      } else if (key == "name") {
        e.name = string();
      } else if (key == "tid") {
        e.track = string();
      } else if (key == "ph") {
        const std::string ph = string();
        if (ph.size() != 1) fail("bad ph");
        e.ph = ph[0];
      } else if (key == "ts") {
        e.ts_raw = raw();
        e.ts_us = std::stod(e.ts_raw);
      } else if (key == "dur") {
        e.dur_raw = raw();
        e.dur_us = std::stod(e.dur_raw);
      } else {
        raw();  // pid, s
      }
    } while (take(','));
    expect('}');
    return e;
  }
  /// A scalar value's raw text: a quoted string verbatim, or a number or
  /// literal up to the next delimiter.
  std::string raw() {
    skip_ws();
    const std::size_t start = pos_;
    if (peek() == '"') {
      string();
    } else {
      while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}') ++pos_;
    }
    return s_.substr(start, pos_ - start);
  }
  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("dangling escape");
        c = s_[pos_++];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) fail("short \\u escape");
            c = static_cast<char>(std::stoi(s_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            break;
          default: break;  // '"', '\\', '/'
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }
  bool take(char c) {
    skip_ws();
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void expect(char c) {
    if (!take(c)) fail(std::string("expected '") + c + "'");
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n')) ++pos_;
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("trace parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::vector<ParsedEvent> parse_trace(const std::string& json) {
  return TraceReader(json).events();
}

// --- Histogram: bucket layout --------------------------------------------

TEST(Histogram, BucketZeroHoldsZeroThroughMinValue) {
  obs::Histogram h;
  const double min_v = h.options().min_value;
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(min_v), 0u);          // inclusive upper edge
  EXPECT_EQ(h.bucket_index(min_v * 1.01), 1u);   // just past it
  EXPECT_EQ(h.bucket_index(-1.0), 0u);           // negatives clamp in
  EXPECT_DOUBLE_EQ(h.bucket_upper_edge(0), min_v);
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  obs::Histogram h;
  for (const std::size_t i : {1u, 2u, 7u, 31u, 100u}) {
    const double edge = h.bucket_upper_edge(i);
    EXPECT_EQ(h.bucket_index(edge), i) << "edge of bucket " << i;
    EXPECT_EQ(h.bucket_index(edge * 1.0000001), i + 1)
        << "just past the edge of bucket " << i;
  }
}

TEST(Histogram, OverflowBucketCatchesBeyondRange) {
  obs::HistogramOptions opt;
  opt.min_value = 1.0;
  opt.growth = 2.0;
  opt.buckets = 4;  // regular buckets 0..3 cover up to 2^3 = 8
  obs::Histogram h(opt);
  EXPECT_EQ(h.bucket_index(8.0), 3u);       // last regular bucket
  EXPECT_EQ(h.bucket_index(9.0), 4u);       // the overflow bucket
  EXPECT_EQ(h.bucket_index(1e12), 4u);
  h.record(1000.0);
  h.record(2.0);
  EXPECT_EQ(h.buckets().back(), 1u);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // Overflow percentile clamps to the observed max, exactly.
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);
}

/// The log-plus-nudge bucket lookup the histogram used before its edge
/// table, kept as the reference the table must agree with.  The one change
/// is the guard before the cast: +infinity (and anything past the last
/// regular bucket) is clamped to the overflow index first, where the
/// original cast an infinite double to size_t.
std::size_t log_nudge_bucket_index(const obs::HistogramOptions& o, double v) {
  const auto edge = [&](std::size_t i) {
    return i >= o.buckets ? std::numeric_limits<double>::infinity()
                          : o.min_value * std::pow(o.growth,
                                                   static_cast<double>(i));
  };
  if (v <= o.min_value) return 0;
  const double k =
      std::ceil(std::log(v / o.min_value) * (1.0 / std::log(o.growth)));
  auto i = static_cast<std::size_t>(
      std::min(std::max(1.0, k), static_cast<double>(o.buckets)));
  while (i > 0 && edge(i - 1) >= v) --i;
  while (edge(i) < v) ++i;
  return std::min<std::size_t>(i, o.buckets);
}

TEST(Histogram, NonFiniteAndEdgeValuesLandWhereTheyAlwaysDid) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  obs::HistogramOptions fine{.min_value = 1e-6, .growth = 1.01,
                             .buckets = 2048};
  obs::HistogramOptions coarse{.min_value = 1e-6, .growth = 2.0};
  for (const auto& o : {obs::HistogramOptions{}, fine, coarse}) {
    const std::string layout = "min " + std::to_string(o.min_value) +
                               " growth " + std::to_string(o.growth);
    obs::Histogram h(o);
    EXPECT_EQ(h.bucket_index(kInf), o.buckets) << layout;
    EXPECT_EQ(h.bucket_index(kNaN), 1u) << layout;
    obs::Histogram fed(o);
    fed.record(kInf);
    EXPECT_EQ(fed.buckets().back(), 1u) << layout;
    fed.record(kNaN);
    EXPECT_EQ(fed.buckets()[1], 1u) << layout;

    std::vector<double> probes = {
        kInf, kNaN, -kInf, -0.0, 0.0, -1.0,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 4,  // subnormal
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest()};
    for (std::size_t i = 0; i <= o.buckets; ++i) {
      const double e = h.bucket_upper_edge(i);
      if (i < o.buckets) {
        EXPECT_EQ(e, o.min_value * std::pow(o.growth, static_cast<double>(i)))
            << layout << " edge " << i;
      }
      for (const double v :
           {e, std::nextafter(e, -kInf), std::nextafter(e, kInf)}) {
        probes.push_back(v);
      }
    }
    for (const double v : probes) {
      EXPECT_EQ(h.bucket_index(v), log_nudge_bucket_index(o, v))
          << layout << " v=" << v;
    }
  }
}

/// bucket_index's definition: the first bucket whose upper edge is at or
/// above v, by std::lower_bound over the edge table (NaN in bucket 1).
std::size_t lower_bound_bucket_index(const std::vector<double>& edges,
                                     double v) {
  if (v <= edges[0]) return 0;
  if (std::isnan(v)) return 1;
  return static_cast<std::size_t>(
      std::lower_bound(edges.begin() + 1, edges.end(), v) - edges.begin());
}

TEST(Histogram, BucketIndexMatchesTheLowerBoundOracle) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  obs::HistogramOptions wa{.min_value = 1.0, .growth = 1.05, .buckets = 96};
  obs::HistogramOptions coarse{.min_value = 1e-3, .growth = 3.0,
                               .buckets = 12};
  for (const auto& o : {obs::HistogramOptions{}, wa, coarse}) {
    const std::string layout = "min " + std::to_string(o.min_value) +
                               " growth " + std::to_string(o.growth);
    const obs::Histogram h(o);
    std::vector<double> edges(o.buckets);
    for (std::size_t i = 0; i < o.buckets; ++i) {
      edges[i] = h.bucket_upper_edge(i);
    }
    std::vector<double> probes = {
        o.min_value, std::nextafter(o.min_value, kInf), -o.min_value, -1e300,
        -kInf, kInf, std::numeric_limits<double>::quiet_NaN(), -0.0, 0.0,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 3,
        std::numeric_limits<double>::max()};
    for (const double e : edges) {
      probes.insert(probes.end(),
                    {e, std::nextafter(e, -kInf), std::nextafter(e, kInf)});
    }
    // Every magnitude: uniformly random bit patterns span every exponent,
    // both signs, subnormals, infinities and NaNs.
    std::mt19937_64 bits(0x5eed);
    for (int i = 0; i < 1'000'000; ++i) {
      probes.push_back(std::bit_cast<double>(bits()));
    }
    std::size_t mismatches = 0;
    for (const double v : probes) {
      const std::size_t want = lower_bound_bucket_index(edges, v);
      if (h.bucket_index(v) != want && ++mismatches <= 5) {
        ADD_FAILURE() << layout << ": bucket_index(" << v
                      << ") = " << h.bucket_index(v) << ", lower_bound says "
                      << want;
      }
    }
    EXPECT_EQ(mismatches, 0u) << layout;
  }
}

TEST(Histogram, CountSumMinMaxMeanAndEmpty) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.record(0.5);
  h.record(0.25);
  h.record(0.25);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 0.5);
  EXPECT_DOUBLE_EQ(h.mean(), 1.0 / 3.0);
}

// --- Histogram: percentile accuracy --------------------------------------

TEST(Histogram, PercentileWithinRelativeErrorBoundOfExactSort) {
  // Deterministic pseudo-random sample spanning several decades.
  obs::Histogram h;
  std::vector<double> sample;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 500; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double v = 1e-6 * std::pow(10.0, static_cast<double>(x % 6000) /
                                               1000.0);  // 1e-6 .. 1
    sample.push_back(v);
    h.record(v);
  }
  std::sort(sample.begin(), sample.end());
  const double bound = h.options().growth - 1.0;
  for (const double q : {0.01, 0.10, 0.50, 0.90, 0.99, 1.0}) {
    const double exact = obs::percentile_sorted(sample, q);
    const double approx = h.percentile(q);
    EXPECT_LE(std::abs(approx - exact) / exact, bound)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(Histogram, PercentileClampsToObservedRange) {
  obs::Histogram h;
  h.record(0.125);
  h.record(0.25);
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_GE(h.percentile(q), 0.125);
    EXPECT_LE(h.percentile(q), 0.25);
  }
}

// --- Histogram: merge algebra --------------------------------------------

obs::Histogram dyadic_histogram(std::initializer_list<double> values) {
  obs::Histogram h;  // dyadic values: FP sums are exact, digests comparable
  for (const double v : values) h.record(v);
  return h;
}

TEST(Histogram, MergeIsAssociative) {
  const auto a = dyadic_histogram({0.25, 0.5});
  const auto b = dyadic_histogram({1.0, 2.0, 4.0});
  const auto c = dyadic_histogram({0.125});
  auto left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  auto bc = b;     // a + (b + c)
  bc.merge(c);
  auto right = a;
  right.merge(bc);
  EXPECT_EQ(left.digest(), right.digest());
}

TEST(Histogram, MergeIsCommutative) {
  const auto a = dyadic_histogram({0.25, 0.5, 8.0});
  const auto b = dyadic_histogram({1.0, 2.0});
  auto ab = a;
  ab.merge(b);
  auto ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.digest(), ba.digest());
}

TEST(Histogram, MergeEqualsSerialFeed) {
  auto merged = dyadic_histogram({0.25, 0.5});
  merged.merge(dyadic_histogram({1.0, 2.0}));
  const auto serial = dyadic_histogram({0.25, 0.5, 1.0, 2.0});
  EXPECT_EQ(merged.digest(), serial.digest());
  EXPECT_EQ(merged.count(), 4u);
  EXPECT_DOUBLE_EQ(merged.sum(), serial.sum());
}

TEST(Histogram, MergeRejectsMismatchedLayouts) {
  obs::HistogramOptions narrow;
  narrow.buckets = 8;
  obs::Histogram a;
  obs::Histogram b(narrow);
  EXPECT_THROW(a.merge(b), Error);
}

/// A histogram's state, merged the way Histogram::merge did before it kept
/// its occupied bucket range: every bucket walked.  The reference the
/// range-limited merge must reproduce exactly.
struct FullWalkHistogram {
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  static FullWalkHistogram of(const obs::Histogram& h) {
    return {h.buckets(), h.count(), h.sum(), h.min(), h.max()};
  }
  void merge(const FullWalkHistogram& other) {
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += other.buckets[i];
    }
    if (other.count > 0) {
      min = count == 0 ? other.min : std::min(min, other.min);
      max = count == 0 ? other.max : std::max(max, other.max);
    }
    count += other.count;
    sum += other.sum;
  }
  /// Histogram::digest()'s fold over this state.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = obs::fnv1a(obs::kFnvOffset, count);
    for (const double v : {sum, min, max}) h = obs::fnv1a(h, obs::double_bits(v));
    for (const auto c : buckets) h = obs::fnv1a(h, c);
    return h;
  }
};

void expect_state(const obs::Histogram& h, const FullWalkHistogram& ref,
                  const std::string& where) {
  EXPECT_EQ(h.buckets(), ref.buckets) << where;
  EXPECT_EQ(h.count(), ref.count) << where;
  // Bit patterns: NaN sums and extrema compare too.
  EXPECT_EQ(obs::double_bits(h.sum()), obs::double_bits(ref.sum)) << where;
  EXPECT_EQ(obs::double_bits(h.min()), obs::double_bits(ref.min)) << where;
  EXPECT_EQ(obs::double_bits(h.max()), obs::double_bits(ref.max)) << where;
  EXPECT_EQ(h.digest(), ref.digest()) << where;
}

TEST(Histogram, OccupiedRangeMergeEqualsFullWalkMerge) {
  // Random histograms (some empty; NaN in bucket 1, +inf and values past
  // the last edge in the overflow bucket, negatives in bucket 0) merged
  // into each other in random orders.  Values are dyadic, so without NaN a
  // serial feed of the same values is a second reference: same digest,
  // same registry JSON.
  Rng rng(0x4157ULL);
  const auto value = [&]() -> double {
    switch (rng.uniform_u64(0, 11)) {
      case 0: return std::numeric_limits<double>::quiet_NaN();
      case 1: return std::numeric_limits<double>::infinity();
      case 2: return 4096.0;  // past the last regular edge
      case 3:
        return -std::ldexp(static_cast<double>(rng.uniform_u64(1, 1023)),
                           -static_cast<int>(rng.uniform_u64(0, 30)));
      default:
        return std::ldexp(static_cast<double>(rng.uniform_u64(1, 1023)),
                          -static_cast<int>(rng.uniform_u64(0, 30)));
    }
  };
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = rng.uniform_u64(2, 6);
    std::vector<obs::Histogram> hists(n);
    std::vector<FullWalkHistogram> refs;
    std::vector<std::vector<double>> fed(n);
    for (std::size_t i = 0; i < n; ++i) {
      // A third of the sources stay empty.
      const auto size = rng.uniform_u64(0, 2) == 0 ? 0 : rng.uniform_u64(1, 8);
      for (std::uint64_t k = 0; k < size; ++k) {
        fed[i].push_back(value());
        hists[i].record(fed[i].back());
      }
      refs.push_back(FullWalkHistogram::of(hists[i]));
    }
    for (int step = 0; step < 12; ++step) {
      const auto to = rng.uniform_u64(0, n - 1);
      const auto from = rng.uniform_u64(0, n - 1);
      if (to == from) continue;
      hists[to].merge(hists[from]);
      refs[to].merge(refs[from]);
      fed[to].insert(fed[to].end(), fed[from].begin(), fed[from].end());
      expect_state(hists[to], refs[to],
                   "trial " + std::to_string(trial) + " step " +
                       std::to_string(step));
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (std::any_of(fed[i].begin(), fed[i].end(),
                      [](double v) { return std::isnan(v); })) {
        continue;  // NaN extrema depend on the order values arrive in
      }
      obs::MetricsRegistry merged, serial;
      merged.histogram("h").merge(hists[i]);
      for (const double v : fed[i]) serial.histogram("h").record(v);
      EXPECT_EQ(hists[i].digest(), serial.histogram("h").digest())
          << "trial " << trial;
      EXPECT_EQ(merged.to_json(), serial.to_json()) << "trial " << trial;
    }
  }
}

// --- Exact nearest-rank percentile ---------------------------------------

TEST(PercentileSorted, NearestRankDefinition) {
  const std::vector<double> s = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(s, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(s, 0.2), 1.0);   // rank ceil(1)=1
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(s, 0.21), 2.0);  // rank ceil(1.05)
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(s, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(s, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(s, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(obs::percentile_sorted({}, 0.5), 0.0);
}

TEST(PercentileSorted, SelectionMatchesTheSortedRank) {
  // percentile_select on an unsorted sample, called back to back on the
  // same (partially reordered) vector the way the serving report takes
  // p50 then p99, must return percentile_sorted's value every time.
  Rng rng(0x5e1ec7ULL);
  std::vector<double> empty;
  EXPECT_EQ(obs::percentile_select(empty, 0.5), 0.0);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> sample(rng.uniform_u64(1, 50));
    for (auto& v : sample) {
      v = static_cast<double>(rng.uniform_u64(0, 20)) * 0.125;  // ties
    }
    auto sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.5, 0.99, 0.0, 0.01, 0.2, 0.21, 0.9, 1.0}) {
      EXPECT_EQ(obs::percentile_select(sample, q),
                obs::percentile_sorted(sorted, q))
          << "trial " << trial << " q " << q;
    }
  }
}

// --- Scalar metrics -------------------------------------------------------

TEST(Metrics, CounterAddsAndGaugeKeepsMaximum) {
  obs::Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value, 42u);

  obs::Gauge g;
  g.set(3.0);
  g.set(1.0);  // a later, lower level does not erase the high-water mark
  EXPECT_DOUBLE_EQ(g.value, 3.0);
  g.set(7.5);
  EXPECT_DOUBLE_EQ(g.value, 7.5);
}

// --- Registry -------------------------------------------------------------

obs::MetricsRegistry sample_registry(bool reversed) {
  obs::MetricsRegistry r;
  const auto fill = [&](int step) {
    switch (step) {
      case 0: r.counter("serve.admitted").add(7); break;
      case 1: r.gauge("queue.depth").set(3.0); break;
      default: r.histogram("latency_s").record(0.5); break;
    }
  };
  if (reversed) {
    fill(2); fill(1); fill(0);
  } else {
    fill(0); fill(1); fill(2);
  }
  return r;
}

TEST(Registry, InsertionOrderDoesNotAffectDigestOrJson) {
  const auto a = sample_registry(false);
  const auto b = sample_registry(true);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(Registry, MergeCombinesEveryMetricKind) {
  obs::MetricsRegistry a;
  a.counter("jobs").add(2);
  a.gauge("depth").set(1.0);
  a.histogram("lat").record(0.25);

  obs::MetricsRegistry b;
  b.counter("jobs").add(3);
  b.counter("only_in_b").add(1);
  b.gauge("depth").set(4.0);
  b.histogram("lat").record(0.5);

  a.merge(b);
  EXPECT_EQ(a.counter_value("jobs"), 5u);      // counters add
  EXPECT_EQ(a.counter_value("only_in_b"), 1u); // missing keys materialise
  EXPECT_DOUBLE_EQ(a.find_gauge("depth")->value, 4.0);  // gauges max
  EXPECT_EQ(a.find_histogram("lat")->count(), 2u);      // histograms merge
  EXPECT_EQ(a.find_counter("absent"), nullptr);
  EXPECT_EQ(a.counter_value("absent"), 0u);
}

TEST(Registry, MergeIsAssociative) {
  const auto make = [](std::uint64_t jobs, double lat) {
    obs::MetricsRegistry r;
    r.counter("jobs").add(jobs);
    r.histogram("lat").record(lat);
    return r;
  };
  const auto a = make(1, 0.25);
  const auto b = make(2, 0.5);
  const auto c = make(3, 1.0);
  auto left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  auto bc = b;     // a + (b + c)
  bc.merge(c);
  auto right = a;
  right.merge(bc);
  EXPECT_EQ(left.digest(), right.digest());
  EXPECT_EQ(left.to_json(), right.to_json());
}

TEST(Registry, DigestIsSensitiveToValues) {
  auto a = sample_registry(false);
  auto b = sample_registry(false);
  EXPECT_EQ(a.digest(), b.digest());
  b.counter("serve.admitted").add();
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Registry, JsonIsWellFormed) {
  const auto r = sample_registry(false);
  EXPECT_TRUE(valid_json(r.to_json())) << r.to_json();
  EXPECT_TRUE(valid_json(obs::MetricsRegistry{}.to_json()));
}

/// merge() as it was before folds existed: one name lookup per metric.
void merge_by_name(obs::MetricsRegistry& target,
                   const obs::MetricsRegistry& source) {
  for (const auto& [name, c] : source.counters()) {
    target.counter(name).add(c.value);
  }
  for (const auto& [name, g] : source.gauges()) {
    if (g.set_ever) target.gauge(name).set(g.value);
  }
  for (const auto& [name, h] : source.histograms()) {
    target.histogram(name, h.options()).merge(h);
  }
}

TEST(Registry, ResolvedFoldsEqualSerialMerges) {
  // Random sources over shared name pools — random subsets, gauges created
  // but never set, histograms on two bucket layouts — folded k times each,
  // interleaved.  Resolving each source's fold once (lazily at its first
  // use, or all up front) and re-applying it must leave the same registry
  // as merge() and as the by-name merge, after every step.
  const obs::HistogramOptions coarse{.min_value = 1e-6, .growth = 2.0,
                                     .buckets = 40};
  Rng rng(0xf01dULL);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<obs::MetricsRegistry> sources(rng.uniform_u64(1, 6));
    for (auto& src : sources) {
      for (int c = 0; c < 10; ++c) {
        if (rng.uniform_u64(0, 1)) {
          src.counter("c" + std::to_string(c)).add(rng.uniform_u64(0, 99));
        }
      }
      for (int g = 0; g < 6; ++g) {
        switch (rng.uniform_u64(0, 2)) {
          case 0: break;
          case 1: src.gauge("g" + std::to_string(g)); break;  // never set
          default:
            src.gauge("g" + std::to_string(g)).set(rng.uniform(-5.0, 5.0));
        }
      }
      for (int h = 0; h < 4; ++h) {
        if (!rng.uniform_u64(0, 1)) continue;
        auto& hist = src.histogram("h" + std::to_string(h),
                                   h < 2 ? obs::HistogramOptions{} : coarse);
        for (auto n = rng.uniform_u64(0, 5); n > 0; --n) {
          hist.record(std::exp(rng.uniform(-25.0, 5.0)));
        }
      }
    }
    obs::MetricsRegistry merged, folded, by_name;
    // Some trials start from a registry that already holds metrics.
    if (trial % 3 == 0) {
      for (auto* r : {&merged, &folded, &by_name}) {
        r->counter("c0").add(5);
        r->gauge("g0").set(1.0);
        r->histogram("h2", coarse).record(3e-3);
      }
    }
    // Resolving up front materialises every target at once, so the
    // registries agree only once each source has been applied.
    const bool lazy = trial % 2 == 0;
    std::vector<std::optional<obs::MetricsFold>> folds(sources.size());
    if (!lazy) {
      for (std::size_t i = 0; i < sources.size(); ++i) {
        folds[i] = folded.resolve_fold(sources[i]);
      }
    }
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      for (auto k = rng.uniform_u64(1, 4); k > 0; --k) order.push_back(i);
    }
    for (std::size_t n = order.size(); n > 1; --n) {  // Fisher-Yates
      std::swap(order[n - 1], order[rng.uniform_u64(0, n - 1)]);
    }
    for (const std::size_t i : order) {
      merged.merge(sources[i]);
      merge_by_name(by_name, sources[i]);
      if (!folds[i]) folds[i] = folded.resolve_fold(sources[i]);
      folds[i]->apply();
      if (lazy) {
        ASSERT_EQ(folded.digest(), merged.digest()) << "trial " << trial;
      }
      ASSERT_EQ(by_name.digest(), merged.digest()) << "trial " << trial;
    }
    EXPECT_EQ(folded.digest(), merged.digest()) << "trial " << trial;
    EXPECT_EQ(folded.to_json(), merged.to_json()) << "trial " << trial;
    EXPECT_EQ(by_name.to_json(), merged.to_json()) << "trial " << trial;
  }
}

// --- Snapshot series ------------------------------------------------------

TEST(Snapshot, PushValidatesShapeAndMonotonicTime) {
  obs::SnapshotSeries s(std::vector<std::string>{"a", "b"});
  s.push(SimTime{1.0}, {1, 2});
  EXPECT_THROW(s.push(SimTime{2.0}, {1}), Error);        // wrong arity
  EXPECT_THROW(s.push(SimTime{0.5}, {1, 2}), Error);     // time went backward
  s.push(SimTime{2.0}, {3, 4});
  EXPECT_EQ(s.rows(), 2u);
}

TEST(Snapshot, ValueByColumnName) {
  obs::SnapshotSeries s(std::vector<std::string>{"offered", "admitted"});
  s.push(SimTime{1.0}, {10, 8});
  EXPECT_EQ(s.value(0, "offered"), 10u);
  EXPECT_EQ(s.value(0, "admitted"), 8u);
  EXPECT_THROW(static_cast<void>(s.value(0, "nope")), Error);
}

TEST(Snapshot, JsonAndDigestDeterministic) {
  const auto build = [] {
    obs::SnapshotSeries s(std::vector<std::string>{"x"});
    s.push(SimTime{0.25}, {1});
    s.push(SimTime{0.5}, {2});
    return s;
  };
  const auto a = build();
  const auto b = build();
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_TRUE(valid_json(a.to_json())) << a.to_json();
}

// --- TraceWriter emitter -------------------------------------------------

TEST(TraceWriter, JsonWellFormedWithEscapes) {
  obs::TraceWriter w;
  w.complete("lane \"0\"", "job\nwith newline", 0.0, 1.0)
      .arg_u64("tenant", 3)
      .arg_str("class", "big");
  w.instant("faults", "fault:dma\ttabbed", 0.5);
  const auto json = w.finish();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  const auto events = parse_trace(json);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].track, "lane \"0\"");
  EXPECT_EQ(events[0].name, "job\nwith newline");
  EXPECT_EQ(events[0].args.at("tenant"), "3");
  EXPECT_EQ(events[0].args.at("class"), "\"big\"");
  EXPECT_EQ(events[1].name, "fault:dma\ttabbed");
  EXPECT_TRUE(events[1].args.empty());
}

TEST(TraceWriter, EscapesEveryControlCharacter) {
  // RFC 8259 §7: no byte below 0x20 may appear raw inside a string.
  EXPECT_FALSE(valid_json("[\"a\rb\"]"));
  EXPECT_FALSE(valid_json("[\"a\x01b\"]"));
  EXPECT_FALSE(valid_json("[\"a\\qb\"]"));
  EXPECT_TRUE(valid_json("[\"a\\u000db\"]"));

  obs::TraceWriter w;
  w.instant("row\r", "line\x01\b", 0.0).arg_str("note", "x\x1fy");
  const auto json = w.finish();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("row\\u000d"), std::string::npos) << json;
  EXPECT_NE(json.find("line\\u0001\\u0008"), std::string::npos) << json;
  const auto events = parse_trace(json);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].track, "row\r");
  EXPECT_EQ(events[0].name, "line\x01\b");
  EXPECT_EQ(events[0].args.at("note"), "\"x\\u001fy\"");
}

TEST(TraceWriter, DropsZeroAndNegativeDurationSpans) {
  obs::TraceWriter empty;
  empty.complete("a", "empty", 1.0, 0.0).arg_u64("dropped", 1);
  empty.complete("a", "negative", 1.0, -2.0).arg_u64("dropped", 2);
  EXPECT_EQ(empty.finish(), "[\n]");

  obs::TraceWriter w;
  w.complete("a", "kept", 0.0, 1.0).arg_u64("n", 1);
  w.complete("a", "empty", 1.0, 0.0).arg_u64("dropped", 1);
  w.complete("a", "real", 1.0, 0.5);
  const auto json = w.finish();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_EQ(json.find("dropped"), std::string::npos) << json;
  const auto events = parse_trace(json);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "kept");
  EXPECT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[1].name, "real");
  EXPECT_TRUE(events[1].args.empty());
}

/// FNV-1a over a serialised trace, the one word a golden test pins.
std::uint64_t trace_digest(const std::string& json) {
  return obs::fnv1a(obs::kFnvOffset, json);
}

std::string printf_fixed6(double v) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string fixed6(double v) {
  std::string out;
  obs::append_fixed6(out, v);
  return out;
}

TEST(TraceWriter, NumbersAreByteIdenticalToPrintfFixedSix) {
  // Zeros of both signs, values at and around the sixth-decimal rounding
  // tie, values beyond double's exact-integer range, and the widest double.
  using limits = std::numeric_limits<double>;
  const std::vector<double> edges = {
      0.0, -0.0, 5e-7, -5e-7, 1.5e-6, -1.5e-6, 2.5e-7, -2.5e-7, 2.5e-6,
      0.5, 0.99999950, 123456789.1234565, -123456789.1234565, 1e17, -1e17,
      1e-300, limits::denorm_min(), limits::max(), -limits::max()};
  obs::TraceWriter w;
  std::vector<std::string> ts, dur;
  for (const double v : edges) {
    EXPECT_EQ(fixed6(v), printf_fixed6(v)) << v;
    const double x = v * 1e-6;  // seconds, as the exporters pass them
    w.instant("t", "i", x);
    ts.push_back(printf_fixed6(x * 1e6));
    if (x > 0.0) {  // denorm_min underflows to a dropped empty span
      w.complete("t", "x", -x, x);
      ts.push_back(printf_fixed6(-x * 1e6));
      dur.push_back(printf_fixed6(x * 1e6));
    }
  }
  const auto json = w.finish();
  std::vector<std::string> got_ts, got_dur;
  for (const auto& e : parse_trace(json)) {
    got_ts.push_back(e.ts_raw);
    if (e.ph == 'X') got_dur.push_back(e.dur_raw);
  }
  EXPECT_EQ(got_ts, ts);
  EXPECT_EQ(got_dur, dur);
}

TEST(TraceWriter, Fixed6MatchesPrintfAcrossMagnitudesAndTies) {
  // append_fixed6's integer fast path covers 2^-30 <= |v| < 2^44; check it
  // and both of its edges against printf on random bit patterns, random
  // magnitudes either side of the window, exact sixth-decimal ties (small
  // dyadic rationals), the neighbours of decimal half-way points and
  // decimals that carry into the integer part.
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> exponent(-36.0, 50.0);
  std::vector<double> values = {
      std::ldexp(1.0, -30), std::nextafter(std::ldexp(1.0, -30), 0.0),
      std::ldexp(1.0, 44), std::nextafter(std::ldexp(1.0, 44), 0.0),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  for (int i = 0; i < 20000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
    const double sign = (rng() & 1) != 0 ? -1.0 : 1.0;
    values.push_back(sign * std::exp2(exponent(rng)));
    const int n = static_cast<int>(rng() % 40);
    values.push_back(sign * std::ldexp(static_cast<double>(rng() % 4096), -n));
    const double halfway =
        static_cast<double>(rng() % 100000000) * 1e-6 + 5e-7;
    values.push_back(halfway);
    values.push_back(std::nextafter(halfway, 0.0));
    values.push_back(std::nextafter(halfway, 1e30));
    // Decimals that round up into the integer part (x.9999996 -> x+1).
    values.push_back(sign *
                     (std::floor(std::exp2(exponent(rng))) + 0.9999996));
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    if (fixed6(v) != printf_fixed6(v) && ++mismatches <= 5) {
      ADD_FAILURE() << std::hexfloat << v << ": " << fixed6(v) << " vs "
                    << printf_fixed6(v);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// The appending renderer TraceWriter replaced: each piece of each event
/// goes straight onto the output, numbers through printf "%.6f" and
/// strings escaped byte by byte.  The reference for TraceWriter's bytes.
class AppendingTraceRenderer {
 public:
  void complete(std::string_view track, std::string_view name,
                double start_s, double duration_s) {
    if (duration_s <= 0.0) {
      close_event();
      skipping_ = true;
      return;
    }
    open(track, name, "X", start_s * 1e6);
    out_ += ",\"dur\":" + printf_fixed6(duration_s * 1e6);
  }
  void instant(std::string_view track, std::string_view name, double ts_s) {
    open(track, name, "i\",\"s\":\"t", ts_s * 1e6);
  }
  void arg_u64(std::string_view key, std::uint64_t value) {
    if (this->key(key)) out_ += std::to_string(value);
  }
  void arg_fixed6(std::string_view key, double value) {
    if (this->key(key)) out_ += printf_fixed6(value);
  }
  void arg_raw(std::string_view key, std::string_view json) {
    if (this->key(key)) out_ += json;
  }
  void arg_str(std::string_view key, std::string_view value) {
    if (!this->key(key)) return;
    out_ += '"';
    escape(value);
    out_ += '"';
  }
  std::string finish() {
    close_event();
    return out_ + "\n]";
  }

 private:
  void escape(std::string_view s) {
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned char>(c));
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
  }
  void open(std::string_view track, std::string_view name, const char* ph,
            double ts_us) {
    close_event();
    skipping_ = false;
    out_ += first_ ? "\n{\"name\":\"" : ",\n{\"name\":\"";
    first_ = false;
    escape(name);
    out_ += std::string("\",\"ph\":\"") + ph + "\",\"pid\":1,\"tid\":\"";
    escape(track);
    out_ += "\",\"ts\":" + printf_fixed6(ts_us);
    open_ = true;
  }
  void close_event() {
    if (open_) out_ += has_args_ ? "}}" : "}";
    open_ = false;
    has_args_ = false;
  }
  bool key(std::string_view key) {
    if (skipping_) return false;
    out_ += has_args_ ? ",\"" : ",\"args\":{\"";
    has_args_ = true;
    escape(key);
    out_ += "\":";
    return true;
  }

  std::string out_ = "[";
  bool first_ = true;
  bool open_ = false;
  bool has_args_ = false;
  bool skipping_ = false;
};

/// One call on a trace emitter, replayable into TraceWriter and the
/// reference renderer alike.
struct TraceCall {
  enum Kind { kComplete, kInstant, kU64, kFixed6, kRaw, kStr } kind;
  std::string a, b;  // track and name, or key and value
  double x = 0.0, y = 0.0;
  std::uint64_t u = 0;

  template <class Emitter>
  void apply(Emitter& e) const {
    switch (kind) {
      case kComplete: e.complete(a, b, x, y); break;
      case kInstant: e.instant(a, b, x); break;
      case kU64: e.arg_u64(a, u); break;
      case kFixed6: e.arg_fixed6(a, x); break;
      case kRaw: e.arg_raw(a, b); break;
      case kStr: e.arg_str(a, b); break;
    }
  }
};

TEST(TraceWriter, ByteIdenticalToTheAppendingRenderer) {
  // Seeded random call streams: names, tracks, keys and string args from
  // plain words, every byte value (each control byte, '"', '\' and UTF-8
  // among them) and strings of 64 KiB and more; timestamps across every
  // magnitude with infinities and NaN; durations positive, zero and
  // negative (the span and its args drop); every arg kind.
  using limits = std::numeric_limits<double>;
  const std::vector<std::string> words = {
      "csd0", "host1", "tenant2 queue", "job17 [queue-wait]", "faults",
      "tenant", "", "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9d\x84\x9e", "\"q\"",
      "back\\slash"};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const auto text = [&]() -> std::string {
      const auto pick = rng.uniform_u64(0, 199);
      if (pick == 0) {  // longer than any scratch: 64 KiB and up
        std::string s(65536 + rng.uniform_u64(0, 4096), 'x');
        for (auto& c : s) {
          if (rng.uniform_u64(0, 15) == 0) {
            c = static_cast<char>(rng.uniform_u64(0, 255));
          }
        }
        return s;
      }
      if (pick <= 40) {  // any byte values
        std::string s(rng.uniform_u64(0, 40), '\0');
        for (auto& c : s) c = static_cast<char>(rng.uniform_u64(0, 255));
        return s;
      }
      return words[rng.uniform_u64(0, words.size() - 1)];
    };
    const auto number = [&]() -> double {
      switch (rng.uniform_u64(0, 15)) {
        case 0: return limits::quiet_NaN();
        case 1: return limits::infinity();
        case 2: return -limits::infinity();
        case 3: return 0.0;
        case 4: return -0.0;
        case 5: return limits::max();
        default: {
          const double sign = rng.uniform_u64(0, 3) == 0 ? -1.0 : 1.0;
          return sign * std::exp2(rng.uniform(-40.0, 60.0));
        }
      }
    };
    std::vector<TraceCall> calls;
    for (int event = 0; event < 3000; ++event) {
      TraceCall open{.kind = TraceCall::kInstant, .a = text(), .b = text(),
                     .x = number()};
      if (rng.uniform_u64(0, 1) == 0) {
        open.kind = TraceCall::kComplete;
        switch (rng.uniform_u64(0, 3)) {
          case 0: open.y = 0.0; break;
          case 1: open.y = -rng.uniform(0.0, 5.0); break;
          default: open.y = number();
        }
      }
      calls.push_back(open);
      for (auto n = rng.uniform_u64(0, 4); n > 0; --n) {
        TraceCall arg{.kind = static_cast<TraceCall::Kind>(
                          rng.uniform_u64(TraceCall::kU64, TraceCall::kStr)),
                      .a = text(),
                      .b = {}};
        arg.b = arg.kind == TraceCall::kRaw
                    ? (rng.uniform_u64(0, 1) ? "true" : "[1,2]")
                    : text();
        arg.x = number();
        arg.u = rng.uniform_u64(0, 3) == 0 ? ~std::uint64_t{0} : rng.next_u64();
        calls.push_back(arg);
      }
    }
    obs::TraceWriter writer;
    AppendingTraceRenderer reference;
    for (const auto& call : calls) {
      call.apply(writer);
      call.apply(reference);
    }
    const std::string got = writer.finish();
    const std::string want = reference.finish();
    const auto diff =
        std::mismatch(got.begin(), got.end(), want.begin(), want.end());
    EXPECT_EQ(got.size(), want.size()) << "seed " << seed;
    EXPECT_TRUE(diff.first == got.end() && diff.second == want.end())
        << "seed " << seed << ": first difference at byte "
        << (diff.first - got.begin());
  }
}

TEST(Metrics, FnvHelpersAreTheSharedCommonDigest) {
  // The obs names are using-declarations for common/digest.hpp (PR 7) —
  // same constants, same folds, so digests computed through either spelling
  // are interchangeable byte for byte.
  EXPECT_EQ(obs::kFnvOffset, isp::kFnvOffset);
  EXPECT_EQ(obs::kFnvPrime, isp::kFnvPrime);
  EXPECT_EQ(obs::fnv1a(obs::kFnvOffset, std::uint64_t{42}),
            isp::fnv1a(isp::kFnvOffset, std::uint64_t{42}));
  const std::string s = "serve.latency_s";
  EXPECT_EQ(obs::fnv1a(obs::kFnvOffset, s), isp::fnv1a(isp::kFnvOffset, s));
  // The string fold is length-prefixed: size as a u64 word, then the bytes.
  EXPECT_EQ(isp::fnv1a(isp::kFnvOffset, s),
            isp::fnv1a_bytes(isp::fnv1a(isp::kFnvOffset, s.size()), s.data(),
                             s.size()));
  EXPECT_EQ(obs::double_bits(1.5), isp::double_bits(1.5));
}

// --- Single-run Chrome-trace backfill ------------------------------------

runtime::ExecutionReport two_line_report() {
  runtime::ExecutionReport report;
  report.program = "trace-backfill";
  report.compile_overhead = Seconds{0.05};
  for (std::uint32_t i = 0; i < 2; ++i) {
    runtime::LineRecord line;
    line.index = i;
    line.name = i == 0 ? "scan" : "agg";
    line.placement = i == 0 ? ir::Placement::Csd : ir::Placement::Host;
    line.start = SimTime{0.05 + static_cast<double>(i)};
    line.access = Seconds{0.2};
    line.transfer_in = Seconds{0.1};
    line.marshal = Seconds{0.05};
    line.compute = Seconds{0.4};
    line.end = line.start + Seconds{0.75};
    report.lines.push_back(line);
  }
  fault::FaultRecord f;
  f.site = fault::Site::DmaTransfer;
  f.time = SimTime{0.3};
  f.faults = 2;
  f.penalty = Seconds{0.01};
  report.fault_records.push_back(f);
  return report;
}

TEST(ChromeTrace, ProducesWellFormedJson) {
  EXPECT_TRUE(valid_json(runtime::to_chrome_trace(two_line_report())));

  // And from a real pipeline run, not just a hand-built report.
  apps::AppConfig config;
  config.size_factor = 0.05;
  system::SystemModel system;
  runtime::ActiveRuntime active(system);
  const auto result = active.run(apps::make_app("tpch-q6", config));
  const auto trace = runtime::to_chrome_trace(result.report);
  EXPECT_TRUE(valid_json(trace));
  EXPECT_FALSE(parse_trace(trace).empty());
}

TEST(ChromeTrace, SubSlicesSumToLineDurations) {
  const auto report = two_line_report();
  const auto events = parse_trace(runtime::to_chrome_trace(report));
  for (const auto& line : report.lines) {
    double sliced = 0.0;
    for (const auto& e : events) {
      if (e.ph != 'X') continue;
      if (e.name == line.name || e.name == line.name + " [access]" ||
          e.name == line.name + " [xfer]" ||
          e.name == line.name + " [marshal]") {
        sliced += e.dur_us;
      }
    }
    const double expected_us =
        (line.access.value() + line.transfer_in.value() +
         line.marshal.value() + line.compute.value()) * 1e6;
    EXPECT_NEAR(sliced, expected_us, 1e-6) << line.name;
  }
}

TEST(ChromeTrace, TimestampsMonotonicPerTrackOnRealRun) {
  apps::AppConfig config;
  config.size_factor = 0.05;
  system::SystemModel system;
  runtime::ActiveRuntime active(system);
  const auto result = active.run(apps::make_app("kmeans", config));
  const auto events = parse_trace(runtime::to_chrome_trace(result.report));
  ASSERT_FALSE(events.empty());
  std::map<std::string, double> last_ts;
  for (const auto& e : events) {
    if (e.ph != 'X') continue;
    const auto it = last_ts.find(e.track);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ts_us, it->second)
          << "track " << e.track << " event " << e.name;
    }
    last_ts[e.track] = e.ts_us;
  }
}

TEST(ChromeTrace, FaultEpisodesBecomeInstantEvents) {
  const auto events =
      parse_trace(runtime::to_chrome_trace(two_line_report()));
  std::size_t fault_instants = 0;
  for (const auto& e : events) {
    if (e.ph != 'i') continue;
    EXPECT_EQ(e.track, "faults");
    EXPECT_EQ(e.name.rfind("fault:", 0), 0u) << e.name;
    ++fault_instants;
  }
  EXPECT_EQ(fault_instants, 1u);
}

TEST(ChromeTrace, GoldenDigest) {
  // A faulted run that migrates mid-line: CSE availability collapses at
  // 40% CSD progress, status updates get lost and flash reads hit ECC
  // errors, so the trace carries host, cse, link and faults rows.
  apps::AppConfig app;
  app.size_factor = 0.25;
  system::SystemModel system;
  runtime::RunConfig rc;
  rc.engine.contention.enabled = true;
  rc.engine.contention.at_csd_progress = 0.4;
  rc.engine.contention.availability = 0.05;
  rc.engine.fault.set_rate(fault::Site::StatusLoss, 0.02);
  rc.engine.fault.set_rate(fault::Site::FlashReadEcc, 0.2);
  rc.engine.fault.seed = 7;
  runtime::ActiveRuntime active(system);
  const auto result = active.run(apps::make_app("kmeans", app), rc);
  ASSERT_GE(result.report.migrations, 1u);
  ASSERT_FALSE(result.report.fault_records.empty());
  const auto json = runtime::to_chrome_trace(result.report);
  ASSERT_TRUE(valid_json(json));
  for (const char* track : {"host", "cse", "link", "faults"}) {
    EXPECT_NE(json.find("\"tid\":\"" + std::string(track) + "\""),
              std::string::npos)
        << track;
  }
  // Recorded before the streaming emitter replaced the event-vector one.
  EXPECT_EQ(trace_digest(json), 0xc0ede94c62479749ULL)
      << std::hex << trace_digest(json);
}

// --- Whole-fleet serving trace -------------------------------------------

serve::ServeConfig tiny_serve_config(unsigned jobs) {
  serve::ServeConfig config;
  config.fleet = serve::FleetConfig::make(1);
  config.tenants = {serve::TenantConfig{.weight = 1.0, .queue_depth = 4},
                    serve::TenantConfig{.weight = 2.0, .queue_depth = 4}};
  config.job_classes = {
      serve::JobClass{.app = "tpch-q6", .size_factor = 0.05}};
  config.total_jobs = 6;
  config.offered_load = 2.0;
  config.jobs = jobs;
  return config;
}

/// The trace reduced to its structural schema: one `track|name|ph` line
/// per event, timestamps and durations stripped — robust to timing-model
/// changes, strict about event structure.
std::string schema_of(const std::string& trace) {
  std::string schema;
  for (const auto& e : parse_trace(trace)) {
    schema += e.track;
    schema += '|';
    schema += e.name;
    schema += '|';
    schema += e.ph;
    schema += '\n';
  }
  return schema;
}

TEST(FleetTrace, GoldenSchemaForTinyServe) {
  const auto report = serve::serve(tiny_serve_config(1));
  const auto schema = schema_of(serve::to_fleet_trace(report));
  // Golden: the exact event structure of the 6-job single-device serve.
  // Every job shows its queue wait, a placement mark, the outer span and
  // the exec sub-slice (migration/recovery slices are zero-length here and
  // dropped by the emitter).
  std::string expected;
  for (const auto& o : report.outcomes) {
    const std::string job = "job" + std::to_string(o.id);
    ASSERT_FALSE(o.rejected) << "tiny config must admit everything";
    const std::string lane = o.on_host ? "host0" : "csd0";
    if (o.queue_wait.value() > 0.0) {
      expected += "tenant" + std::to_string(o.tenant) + " queue|" + job +
                  " [queue-wait]|X\n";
    }
    expected += lane + "|" + job + " [placement]|i\n";
    expected += lane + "|" + job + "|X\n";
    expected += lane + "|" + job + " [exec]|X\n";
  }
  EXPECT_EQ(schema, expected);
  EXPECT_NE(schema.find("csd0|job0|X"), std::string::npos);
}

TEST(FleetTrace, ArtifactsByteIdenticalAcrossRunsAndJobs) {
  const auto a = serve::serve(tiny_serve_config(1));
  const auto b = serve::serve(tiny_serve_config(1));
  const auto c = serve::serve(tiny_serve_config(3));
  EXPECT_EQ(serve::to_fleet_trace(a), serve::to_fleet_trace(b));
  EXPECT_EQ(serve::to_fleet_trace(a), serve::to_fleet_trace(c));
  EXPECT_EQ(serve::metrics_json(a), serve::metrics_json(b));
  EXPECT_EQ(serve::metrics_json(a), serve::metrics_json(c));
  EXPECT_EQ(a.metrics.digest(), c.metrics.digest());
  EXPECT_EQ(a.snapshots.digest(), c.snapshots.digest());
  EXPECT_TRUE(valid_json(serve::to_fleet_trace(a)));
  EXPECT_TRUE(valid_json(serve::metrics_json(a)));
}

TEST(FleetTrace, NumbersAreByteIdenticalToPrintfFixedSix) {
  const auto report = serve::serve(tiny_serve_config(2));
  const auto events = parse_trace(serve::to_fleet_trace(report));
  ASSERT_FALSE(events.empty());
  // Every number is printf "%.6f" of the value it carries...
  for (const auto& e : events) {
    EXPECT_EQ(e.ts_raw, printf_fixed6(e.ts_us)) << e.name;
    if (e.ph == 'X') {
      EXPECT_EQ(e.dur_raw, printf_fixed6(e.dur_us)) << e.name;
    }
  }
  // ... and each job's placement instant and outer span print the report's
  // virtual times, scaled to microseconds, byte for byte.
  std::size_t checked = 0;
  for (const auto& o : report.outcomes) {
    const std::string job = "job" + std::to_string(o.id);
    for (const auto& e : events) {
      if (e.name == job + " [placement]") {
        EXPECT_EQ(e.ts_raw, printf_fixed6(o.start.seconds() * 1e6)) << job;
        EXPECT_EQ(e.args.at("eq1_profit_s"),
                  printf_fixed6(o.eq1_profit.value()))
            << job;
        ++checked;
      } else if (e.name == job) {
        EXPECT_EQ(e.ts_raw, printf_fixed6(o.start.seconds() * 1e6)) << job;
        EXPECT_EQ(e.dur_raw, printf_fixed6(o.service.value() * 1e6)) << job;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 2 * report.completed);
}

TEST(FleetTrace, WriteFleetTraceRoundTripsAndRejectsUnwritablePath) {
  const auto report = serve::serve(tiny_serve_config(1));
  const std::string path = testing::TempDir() + "isp_fleet_trace_test.json";
  serve::write_fleet_trace(report, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, serve::to_fleet_trace(report));
  std::remove(path.c_str());

  EXPECT_THROW(serve::write_fleet_trace(report, "/nonexistent-dir/x.json"),
               Error);
}

TEST(FleetTrace, DeviceFailureShowsLostAttemptsAndFailureInstant) {
  // Two devices, one killed early: the trace must carry the permanent
  // failure as an explicit instant and every killed attempt as a [lost]
  // span on the dying lane — nothing about the death is implicit.
  serve::ServeConfig config;
  config.fleet = serve::FleetConfig::make(2);
  config.tenants = {serve::TenantConfig{.weight = 1.0, .queue_depth = 8},
                    serve::TenantConfig{.weight = 2.0, .queue_depth = 8}};
  config.job_classes = {
      serve::JobClass{.app = "tpch-q6", .size_factor = 0.05}};
  config.total_jobs = 12;
  config.offered_load = 4.0;
  config.jobs = 2;
  config.kill_devices = {
      serve::KillDevice{.device = 0, .at = SimTime{1.0}}};
  const auto report = serve::serve(config);
  ASSERT_EQ(report.devices_failed, 1u);

  const auto trace = serve::to_fleet_trace(report);
  std::size_t failure_instants = 0, lost_spans = 0;
  for (const auto& e : parse_trace(trace)) {
    if (e.name == "device-failure") {
      EXPECT_EQ(e.track, "csd0");
      EXPECT_EQ(e.ph, 'i');
      EXPECT_NEAR(e.ts_us, report.lanes[0].died_at.seconds() * 1e6, 1e-3);
      ++failure_instants;
    }
    if (e.name.find(" [lost]") != std::string::npos) {
      EXPECT_EQ(e.track, "csd0");
      ++lost_spans;
    }
  }
  EXPECT_EQ(failure_instants, 1u);
  EXPECT_EQ(lost_spans, report.lost_in_flight);
  EXPECT_TRUE(valid_json(trace));
}

TEST(FleetSnapshots, ChaosColumnsConserveEveryAdmittedJob) {
  serve::ServeConfig config;
  config.fleet = serve::FleetConfig::make(2);
  config.tenants = {serve::TenantConfig{.weight = 1.0, .queue_depth = 8},
                    serve::TenantConfig{.weight = 2.0, .queue_depth = 8}};
  config.job_classes = {
      serve::JobClass{.app = "tpch-q6", .size_factor = 0.05}};
  config.total_jobs = 12;
  config.offered_load = 4.0;
  config.jobs = 2;
  config.kill_devices = {
      serve::KillDevice{.device = 0, .at = SimTime{1.0}}};
  const auto report = serve::serve(config);

  const auto& s = report.snapshots;
  const std::vector<std::string> expected_columns = {
      "offered", "admitted", "rejected", "completed", "in_flight",
      "queued", "retried", "deadline_missed", "retry_exhausted",
      "breaker_open_lanes"};
  EXPECT_EQ(s.columns(), expected_columns);
  ASSERT_GT(s.rows(), 0u);
  for (std::size_t row = 0; row < s.rows(); ++row) {
    EXPECT_EQ(s.value(row, "admitted"),
              s.value(row, "completed") + s.value(row, "deadline_missed") +
                  s.value(row, "retry_exhausted") +
                  s.value(row, "in_flight") + s.value(row, "queued"))
        << "row " << row;
  }
  const std::size_t last = s.rows() - 1;
  EXPECT_EQ(s.value(last, "retried"), report.retried);
  EXPECT_EQ(s.value(last, "retry_exhausted"), report.retry_exhausted);
  EXPECT_EQ(s.value(last, "breaker_open_lanes"), 0u);  // deaths, not trips
}

/// A small chaos serve whose fleet trace carries every event kind the
/// exporter emits: overload and deadline rejections, deadline misses, lost
/// attempts with exhausted retries, migration / recovery / reclaim slices,
/// fault instants, breaker transitions and device failures.
serve::ServeConfig chaos_serve_config() {
  serve::ServeConfig config;
  config.fleet =
      serve::FleetConfig::make(3, 1, 0.05, serve::BackendMix::Mixed);
  config.tenants = {
      serve::TenantConfig{.weight = 1.0, .queue_depth = 1},
      serve::TenantConfig{
          .weight = 2.0, .queue_depth = 4, .slo = Seconds{1.0}}};
  config.job_classes = {
      serve::JobClass{.app = "tpch-q6", .size_factor = 0.05},
      serve::JobClass{.app = "kmeans", .size_factor = 0.08, .persist = true}};
  config.total_jobs = 60;
  config.offered_load = 30.0;
  config.jobs = 2;
  config.fault.set_rate_all(0.02);
  config.power_loss_job = 3;
  config.power_loss_after = 2;
  config.kill_devices = {serve::KillDevice{.device = 0, .at = SimTime{1.0}},
                         serve::KillDevice{.device = 1, .at = SimTime{3.0}}};
  config.retry_budget = 0;
  config.breaker.threshold = 1.0;
  return config;
}

TEST(FleetTrace, GoldenDigestCoversEveryEventKind) {
  const auto json = serve::to_fleet_trace(serve::serve(chaos_serve_config()));
  ASSERT_TRUE(valid_json(json));
  for (const char* kind :
       {" rejected\"", "deadline-rejected", "deadline-missed",
        "retry-exhausted", "[lost]", "[migration]", "[recovery]",
        "[reclaim]", "fault:", "breaker ", "device-failure"}) {
    EXPECT_NE(json.find(kind), std::string::npos) << kind;
  }
  // Recorded before the streaming emitter replaced the event-vector one:
  // every trace byte must survive emitter changes.
  EXPECT_EQ(trace_digest(json), 0x333058a9bee987ddULL)
      << std::hex << trace_digest(json);
}

TEST(FleetTrace, SubSlicesPartitionEachJobsServiceTime) {
  auto config = tiny_serve_config(2);
  config.fault.set_rate_all(0.02);  // exercise recovery/migration slices
  const auto report = serve::serve(config);
  const auto events = parse_trace(serve::to_fleet_trace(report));
  for (const auto& o : report.outcomes) {
    if (o.rejected) continue;
    const std::string job = "job" + std::to_string(o.id);
    double outer = 0.0;
    double sliced = 0.0;
    for (const auto& e : events) {
      if (e.ph != 'X') continue;
      if (e.name == job) outer = e.dur_us;
      if (e.name == job + " [exec]" || e.name == job + " [migration]" ||
          e.name == job + " [recovery]") {
        sliced += e.dur_us;
      }
    }
    EXPECT_GT(outer, 0.0) << job;
    EXPECT_NEAR(sliced, outer, 1e-6) << job;
  }
}

}  // namespace
}  // namespace isp
