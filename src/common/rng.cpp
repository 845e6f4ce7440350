#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace isp {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double hash_unit(std::uint64_t x) {
  // 53 high bits -> [0, 1).
  return static_cast<double>(splitmix64(x) >> 11) * 0x1.0p-53;
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    s = splitmix64(s);
    word = s;
  }
  // xoshiro must not start from the all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = next_double();
  const double u2 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

void UniformDraw::empty_range() {
  detail::raise_check_failure("lo <= hi", __FILE__, __LINE__, "empty range");
}

// Out of line, so the constants always come from libm at run time, never
// from compile-time folding of a constant (n, s), which may round
// differently.
ZipfDraw::ZipfDraw(std::uint64_t n, double s) : n_(n), harmonic_(s == 1.0) {
  ISP_CHECK(n > 0, "zipf over empty domain");
  const double nd = static_cast<double>(n);
  if (harmonic_) {
    log_n_ = std::log(nd);
  } else {
    const double one_minus_s = 1.0 - s;
    range_ = std::pow(nd, one_minus_s) - 1.0;
    inv_exponent_ = 1.0 / one_minus_s;
  }
}

Rng Rng::fork(std::uint64_t stream_id) const {
  return Rng{splitmix64(state_[0] ^ splitmix64(stream_id))};
}

}  // namespace isp
