// Deterministic pseudo-random number generation.
//
// Everything in the reproduction that involves randomness — dataset
// generation, cost-model jitter, contention schedules — draws from Rng so a
// given seed reproduces a run bit-for-bit.  xoshiro256** with splitmix64
// seeding; no dependence on std::random_device or platform distributions
// (std:: distributions are not cross-implementation stable, ours are).
//
// The draws are a bit-exact contract (pinned by Rng.ReferenceStream and the
// DatasetGolden digests).  The per-draw ones are inline so a fill loop keeps
// the generator state in registers and a constant range folds its divides;
// the draw objects below are built once per range and hold only that
// range's constants, so every draw does the same IEEE and integer operations
// on the same operands as a draw computed from scratch.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace isp {

/// xoshiro256** generator with deterministic splitmix64 seeding.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive (see UniformDraw).
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi);

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  /// Standard normal via Box–Muller (deterministic, caches the pair).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// A derived generator whose stream is independent of this one.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const;

  /// Deterministic shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_u64(0, i - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Uniform integers in [lo, hi] inclusive, by rejection sampling against
/// the largest multiple of the span below 2^64, so no residue is favoured.
/// Built once per range, it holds the rejection limit (one 64-bit divide);
/// each draw then pays one remainder.  Rng::uniform_u64 is this draw built
/// on the spot, which a constant range folds entirely.
class UniformDraw {
 public:
  UniformDraw(std::uint64_t lo, std::uint64_t hi)
      : lo_(lo), span_(hi - lo + 1) {
    if (lo > hi) empty_range();
    // span_ == 0 is the full 64-bit range: every value is accepted.
    if (span_ != 0) limit_ = span_ * (~0ULL / span_);
  }

  std::uint64_t operator()(Rng& rng) const {
    if (span_ == 0) return rng.next_u64();
    std::uint64_t x;
    do {
      x = rng.next_u64();
    } while (x >= limit_);
    return lo_ + x % span_;
  }

 private:
  /// Throws isp::Error; out of line, so the draw stays small enough for a
  /// fill loop to inline it and fold a constant range.
  [[noreturn]] static void empty_range();

  std::uint64_t lo_;
  std::uint64_t span_;
  std::uint64_t limit_ = 0;
};

inline std::uint64_t Rng::uniform_u64(std::uint64_t lo, std::uint64_t hi) {
  return UniformDraw{lo, hi}(*this);
}

/// Zipf-distributed integers in [0, n) with exponent s, by inverting the CDF
/// of the continuous Zipf envelope (Gray et al., "Quickly generating
/// billion-record synthetic databases").  Built once per (n, s), it holds
/// `pow(n, 1 - s) - 1` and `1 / (1 - s)` (or `log(n)` at s == 1); each draw
/// takes one next_double() (none when n == 1) and keeps its own `pow`,
/// because nothing cheaper yields the same bits.
class ZipfDraw {
 public:
  ZipfDraw(std::uint64_t n, double s);

  std::uint64_t operator()(Rng& rng) const {
    if (n_ == 1) return 0;
    const double u = rng.next_double();
    if (harmonic_) {
      return static_cast<std::uint64_t>(std::exp(u * log_n_)) - 1;
    }
    const auto rank =
        static_cast<std::uint64_t>(std::pow(u * range_ + 1.0, inv_exponent_));
    return rank < n_ ? rank : n_ - 1;
  }

 private:
  std::uint64_t n_;
  bool harmonic_;              // s == 1: x = exp(u * log(n))
  double log_n_ = 0.0;         // log(n), at s == 1
  double range_ = 0.0;         // pow(n, 1 - s) - 1
  double inv_exponent_ = 0.0;  // 1 / (1 - s)
};

/// splitmix64 single step — also useful as a cheap stateless hash for
/// deterministic per-item jitter.
std::uint64_t splitmix64(std::uint64_t x);

/// Deterministic hash of x into a double in [0, 1).
double hash_unit(std::uint64_t x);

}  // namespace isp
