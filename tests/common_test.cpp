// Unit tests: strong units, deterministic RNG, error handling, logging,
// and the shared benchmark statistics helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/digest.hpp"
#include "common/divide.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace isp {
namespace {

TEST(Units, BytesArithmetic) {
  EXPECT_EQ((Bytes{1} + Bytes{2}).count(), 3u);
  EXPECT_EQ((Bytes{5} - Bytes{2}).count(), 3u);
  EXPECT_EQ((Bytes{4} * 3).count(), 12u);
  EXPECT_EQ((3 * Bytes{4}).count(), 12u);
  EXPECT_EQ((1_KiB).count(), 1024u);
  EXPECT_EQ((1_MiB).count(), 1024u * 1024u);
  EXPECT_EQ((1_GiB).count(), 1024u * 1024u * 1024u);
  EXPECT_EQ(gigabytes(6.9).count(), 6'900'000'000u);
}

TEST(Units, BytesScale) {
  EXPECT_EQ(scale(Bytes{1024}, 0.5).count(), 512u);
  EXPECT_EQ(scale(Bytes{1024}, 1.0 / 1024).count(), 1u);
  EXPECT_EQ(scale(Bytes{0}, 0.5).count(), 0u);
}

TEST(Units, SecondsArithmetic) {
  EXPECT_DOUBLE_EQ((Seconds{1.5} + Seconds{0.5}).value(), 2.0);
  EXPECT_DOUBLE_EQ((Seconds{1.5} - Seconds{0.5}).value(), 1.0);
  EXPECT_DOUBLE_EQ((Seconds{2.0} * 3.0).value(), 6.0);
  EXPECT_DOUBLE_EQ((Seconds{6.0} / 3.0).value(), 2.0);
  EXPECT_DOUBLE_EQ(Seconds{6.0} / Seconds{3.0}, 2.0);
  EXPECT_TRUE(Seconds::infinity() > Seconds{1e30});
}

TEST(Units, BandwidthDivision) {
  // 5 GB over a 5 GB/s link takes one second.
  const Seconds t = gigabytes(5.0) / gb_per_s(5.0);
  EXPECT_NEAR(t.value(), 1.0, 1e-12);
}

TEST(Units, SimTimeOrdering) {
  const SimTime a{1.0};
  const SimTime b = a + Seconds{0.5};
  EXPECT_LT(a, b);
  EXPECT_DOUBLE_EQ((b - a).value(), 0.5);
  EXPECT_LT(a, SimTime::infinity());
}

TEST(Units, CyclesOverClock) {
  const Seconds t = Cycles{3.6e9} / ghz(3.6);
  EXPECT_NEAR(t.value(), 1.0, 1e-12);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIndependentStreams) {
  Rng base(7);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  EXPECT_NE(f1.next_u64(), f2.next_u64());
  // Forking is a const operation on the parent.
  Rng again = Rng(7).fork(1);
  Rng f1b = Rng(7).fork(1);
  EXPECT_EQ(again.next_u64(), f1b.next_u64());
}

TEST(Rng, UniformBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_u64(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    const double d = rng.uniform(-2.0, 3.0);
    EXPECT_GE(d, -2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_u64(5, 5), 5u);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.15);
}

TEST(Rng, ZipfSkewsTowardHead) {
  Rng rng(5);
  constexpr std::uint64_t kDomain = 10000;
  int head = 0;
  constexpr int kN = 10000;
  const ZipfDraw zipf(kDomain, 0.9);
  for (int i = 0; i < kN; ++i) {
    const auto v = zipf(rng);
    EXPECT_LT(v, kDomain);
    head += (v < kDomain / 100) ? 1 : 0;
  }
  // The top 1% of ranks receive far more than 1% of draws.
  EXPECT_GT(head, kN / 20);
}

TEST(Rng, ZipfDomainOne) {
  Rng rng(5);
  EXPECT_EQ(ZipfDraw(1, 0.9)(rng), 0u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(copy.begin(), copy.end());
  EXPECT_EQ(a, b);
}

// The generators are a bit-exact contract: every dataset in the
// reproduction is drawn from them.  These digests of the first draws of each
// stream were recorded before any draw was moved or inlined, and they never
// change.
TEST(Rng, ReferenceStream) {
  constexpr std::uint64_t kTop = ~0ULL;
  constexpr std::uint64_t k2p32 = std::uint64_t{1} << 32;
  constexpr std::uint64_t k2p63 = std::uint64_t{1} << 63;
  struct Stream {
    const char* name;
    std::function<std::uint64_t(Rng&)> draw;
    std::uint64_t digest;
  };
  auto bounded = [](std::uint64_t lo, std::uint64_t hi) {
    return [lo, hi](Rng& r) { return r.uniform_u64(lo, hi); };
  };
  auto zipf = [](std::uint64_t n, double s) {
    return [draw = ZipfDraw(n, s)](Rng& r) { return draw(r); };
  };
  auto raw = [](Rng& r) { return r.next_u64(); };
  auto unit = [](Rng& r) { return double_bits(r.next_double()); };
  auto real = [](double lo, double hi) {
    return [lo, hi](Rng& r) { return double_bits(r.uniform(lo, hi)); };
  };
  const std::vector<Stream> streams = {
      {"next_u64", raw, 0xb9976a51dc75f1d6ULL},
      {"next_double", unit, 0xceb7284588820e98ULL},
      {"uniform(-1,1)", real(-1.0, 1.0), 0x67b9055a22ab143bULL},
      {"uniform(900,105000)", real(900.0, 105000.0), 0xa144437d5ba4f40fULL},
      {"span 1", bounded(5, 5), 0x95eb7d7e0ba80425ULL},
      {"span 3", bounded(0, 2), 0x6371ebb5f3aa84e4ULL},
      {"span 2555", bounded(0, 2554), 0xc8c36bde817d16eaULL},
      {"span 2^32-1", bounded(7, 7 + k2p32 - 2), 0x9af188e3472e8e66ULL},
      {"span 2^32+1", bounded(0, k2p32), 0x348c4ec5d0d875c6ULL},
      {"span 2^63+1", bounded(11, 11 + k2p63), 0x0d04564d6939dfcbULL},
      {"span 2^64", bounded(0, kTop), 0xb9976a51dc75f1d6ULL},
      {"zipf(1000, 0.65)", zipf(1000, 0.65), 0x46b7d3b2158901b7ULL},
      {"zipf(1000, 1.0)", zipf(1000, 1.0), 0x60860077043c92b2ULL},
      {"zipf(1000, 1.3)", zipf(1000, 1.3), 0x60ceec9a3f86daf3ULL},
      {"zipf(123457, 0.65)", zipf(123457, 0.65), 0x1c1fbb10c2a9870bULL},
      {"zipf(2, 1.3)", zipf(2, 1.3), 0xdaf48152197a3825ULL},
  };
  for (const auto& stream : streams) {
    Rng rng(2026);
    std::uint64_t h = kFnvOffset;
    for (int i = 0; i < 2000; ++i) h = fnv1a(h, stream.draw(rng));
    EXPECT_EQ(h, stream.digest)
        << stream.name << ": got 0x" << std::hex << h;
  }
}

// The draws as they were computed per call, before their per-range
// constants moved into UniformDraw and ZipfDraw: the oracles those are
// checked against.
std::uint64_t reference_uniform_u64(Rng& rng, std::uint64_t lo,
                                    std::uint64_t hi) {
  ISP_CHECK(lo <= hi, "empty range");
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return rng.next_u64();  // full 64-bit range
  const std::uint64_t limit = span * (~0ULL / span);
  std::uint64_t x;
  do {
    x = rng.next_u64();
  } while (x >= limit);
  return lo + x % span;
}

std::uint64_t reference_zipf(Rng& rng, std::uint64_t n, double s) {
  ISP_CHECK(n > 0, "zipf over empty domain");
  if (n == 1) return 0;
  const double nd = static_cast<double>(n);
  if (s == 1.0) {
    const double u = rng.next_double();
    const double x = std::exp(u * std::log(nd));
    return static_cast<std::uint64_t>(x) - 1;
  }
  const double u = rng.next_double();
  const double one_minus_s = 1.0 - s;
  const double x =
      std::pow(u * (std::pow(nd, one_minus_s) - 1.0) + 1.0, 1.0 / one_minus_s);
  auto rank = static_cast<std::uint64_t>(x);
  if (rank >= n) rank = n - 1;
  return rank;
}

// A bounded draw built once per range, Rng::uniform_u64 and the per-call
// reference return the same values and leave the generator in the same
// state, over random seeds and ranges: tiny spans, spans near 2^32, spans
// past 2^63 (where about half the raw draws are rejected) and the full
// range, whose span wraps to 0.
TEST(Rng, UniformDrawMatchesReference) {
  constexpr std::uint64_t kTop = ~0ULL;
  Rng pick(0xb0u);
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint64_t seed = pick.next_u64();
    std::uint64_t span_minus_1 = 0;
    switch (trial % 6) {
      case 0: span_minus_1 = pick.next_u64() % 16; break;
      case 1: span_minus_1 = (pick.next_u64() % 5 + (1ULL << 32)) - 3; break;
      case 2: span_minus_1 = pick.next_u64() >> 1 | 1ULL << 63; break;
      case 3: span_minus_1 = pick.next_u64() >> (pick.next_u64() % 64); break;
      case 4: span_minus_1 = kTop; break;  // hi - lo + 1 wraps to 0
      default: span_minus_1 = pick.next_u64() % 3000; break;
    }
    const std::uint64_t max_lo = kTop - span_minus_1;
    const std::uint64_t lo =
        max_lo == kTop ? pick.next_u64() : pick.next_u64() % (max_lo + 1);
    const std::uint64_t hi = lo + span_minus_1;
    const UniformDraw draw(lo, hi);
    Rng a(seed);
    Rng b(seed);
    Rng c(seed);
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t want = reference_uniform_u64(a, lo, hi);
      ASSERT_EQ(draw(b), want) << "[" << lo << ", " << hi << "] draw " << i;
      ASSERT_EQ(c.uniform_u64(lo, hi), want)
          << "[" << lo << ", " << hi << "] draw " << i;
    }
    const std::uint64_t next = a.next_u64();
    ASSERT_EQ(b.next_u64(), next) << "[" << lo << ", " << hi << "]";
    ASSERT_EQ(c.next_u64(), next) << "[" << lo << ", " << hi << "]";
  }
}

// A Zipf draw built once per (n, s) returns the per-call formula's ranks
// bit for bit and consumes the same draws, including n = 1 (no draw at
// all), s = 1 (the logarithmic form), s > 1 and s = 0.
TEST(Rng, ZipfDrawMatchesReference) {
  Rng pick(0x21u);
  const std::vector<std::uint64_t> domains = {
      1, 2, 3, 64, 1000, 20'000, 83'000, 1ULL << 20, 123'456'789,
      1ULL << 40};
  const std::vector<double> exponents = {0.0, 0.3, 0.65, 0.8,  0.9,
                                         1.0, 1.1, 1.3,  2.5};
  for (const std::uint64_t n : domains) {
    for (const double s : exponents) {
      for (int trial = 0; trial < 4; ++trial) {
        const double skew = trial == 3 ? 3.0 * pick.next_double() : s;
        const std::uint64_t seed = pick.next_u64();
        const ZipfDraw draw(n, skew);
        Rng a(seed);
        Rng b(seed);
        for (int i = 0; i < 256; ++i) {
          ASSERT_EQ(draw(b), reference_zipf(a, n, skew))
              << "n " << n << " s " << skew << " draw " << i;
        }
        ASSERT_EQ(a.next_u64(), b.next_u64()) << "n " << n << " s " << skew;
      }
    }
  }
}

TEST(Rng, EmptyRangesThrow) {
  Rng rng(3);
  EXPECT_THROW((void)rng.uniform_u64(5, 4), Error);
  EXPECT_THROW(UniformDraw(1, 0), Error);
  EXPECT_THROW(UniformDraw(~0ULL, 0), Error);
  EXPECT_THROW(ZipfDraw(0, 0.65), Error);
  EXPECT_NO_THROW(UniformDraw(0, ~0ULL));
}

TEST(Rng, HashUnitInRange) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double u = hash_unit(i);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  EXPECT_EQ(hash_unit(42), hash_unit(42));
  EXPECT_NE(hash_unit(42), hash_unit(43));
}

TEST(Error, CheckThrowsWithContext) {
  try {
    ISP_CHECK(1 == 2, "math is broken: " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken: 42"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(ISP_CHECK(1 + 1 == 2, "fine"));
}

TEST(BenchUtil, GeomeanOfPositives) {
  EXPECT_DOUBLE_EQ(bench::geomean({4.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(bench::geomean({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(bench::geomean({}), 0.0);
}

TEST(BenchUtil, GeomeanSkipsNonPositiveEntries) {
  // Zero/negative speedups (failed or skipped runs) must not poison the
  // mean with -inf/NaN; they are excluded from the product.
  std::size_t excluded = 0;
  const double g = bench::geomean({4.0, 0.0, 1.0, -2.5}, &excluded);
  EXPECT_TRUE(std::isfinite(g));
  EXPECT_DOUBLE_EQ(g, 2.0);
  // The exclusion is reported, not silent.
  EXPECT_EQ(excluded, 2u);
  // All entries non-positive: defined, finite, zero, and all reported.
  EXPECT_DOUBLE_EQ(bench::geomean({0.0, -1.0}, &excluded), 0.0);
  EXPECT_EQ(excluded, 2u);
  // Clean input reports zero exclusions.
  EXPECT_DOUBLE_EQ(bench::geomean({2.0, 8.0}, &excluded), 4.0);
  EXPECT_EQ(excluded, 0u);
}

TEST(BenchUtil, MeanBasics) {
  EXPECT_DOUBLE_EQ(bench::mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(bench::mean({}), 0.0);
}

TEST(Digest, Fnv1aMatchesTheReferenceVectors) {
  // Classic FNV-1a 64 test vectors: the empty string is the offset basis,
  // and h("a") is the published reference value.
  EXPECT_EQ(kFnvOffset, 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a_bytes(kFnvOffset, "", 0), kFnvOffset);
  EXPECT_EQ(fnv1a_bytes(kFnvOffset, "a", 1), 0xaf63dc4c8601ec8cULL);
}

TEST(Digest, WordFoldIsLittleEndianByteFold) {
  // fnv1a(h, u64) must equal folding the value's 8 bytes LSB-first — the
  // convention every digest in the repository (obs, recovery, serve) uses.
  const std::uint64_t v = 0x0102030405060708ULL;
  const unsigned char le[8] = {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(fnv1a(kFnvOffset, v), fnv1a_bytes(kFnvOffset, le, 8));
  // Zero still advances the hash: eight zero bytes, not a no-op.
  EXPECT_NE(fnv1a(kFnvOffset, 0), kFnvOffset);
}

TEST(Digest, StringFoldPrefixesTheLength) {
  // Strings fold size-then-bytes so "ab"+"c" and "a"+"bc" cannot collide.
  const std::string s = "ab";
  EXPECT_EQ(fnv1a(kFnvOffset, s),
            fnv1a_bytes(fnv1a(kFnvOffset, std::uint64_t{2}), s.data(), 2));
  std::uint64_t split_a = fnv1a(kFnvOffset, std::string("ab"));
  split_a = fnv1a(split_a, std::string("c"));
  std::uint64_t split_b = fnv1a(kFnvOffset, std::string("a"));
  split_b = fnv1a(split_b, std::string("bc"));
  EXPECT_NE(split_a, split_b);
}

TEST(Digest, DoubleBitsIsExact) {
  EXPECT_EQ(double_bits(1.5), 0x3FF8000000000000ULL);
  EXPECT_EQ(double_bits(0.0), 0u);
  // +0.0 and -0.0 compare equal as doubles but are distinct states; the
  // digest must see the difference.
  EXPECT_NE(double_bits(0.0), double_bits(-0.0));
}

// The storage pool's page-to-unit map divides by a multiply; it must agree
// with the hardware divide on every 32-bit dividend, at both ends of the
// divisor range and around every multiple of the divisor.
TEST(ExactDivider, MatchesHardwareDivideOver32Bits) {
  constexpr std::uint64_t kMax = ExactDivider::kMaxDividend;
  Rng rng(0xd1u);
  for (const std::uint32_t d :
       {1u, 2u, 3u, 7u, 8u, 255u, 256u, 1000u, 1024u, 4096u, 65'535u,
        65'536u, 0x7FFF'FFFFu, 0x8000'0000u, 0xFFFF'FFFEu, 0xFFFF'FFFFu}) {
    const ExactDivider div(d);
    for (std::uint64_t n = 0; n < 4096; ++n) {
      ASSERT_EQ(div(n), n / d) << n << " / " << d;
      ASSERT_EQ(div(kMax - n), (kMax - n) / d) << kMax - n << " / " << d;
    }
    for (int i = 0; i < 4096; ++i) {
      const std::uint64_t n = rng.uniform_u64(0, kMax);
      ASSERT_EQ(div(n), n / d) << n << " / " << d;
      // Just below, at and just past a multiple of d.
      const std::uint64_t m = n / d * d;
      for (const std::uint64_t k : {m - (m > 0 ? 1 : 0), m, m + 1}) {
        if (k <= kMax) {
          ASSERT_EQ(div(k), k / d) << k << " / " << d;
        }
      }
    }
  }
}

TEST(Log, LevelGate) {
  const auto old = log_level();
  set_log_level(LogLevel::Off);
  ISP_LOG_INFO("this must not crash while gated");
  set_log_level(old);
  SUCCEED();
}

}  // namespace
}  // namespace isp
