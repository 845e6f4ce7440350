// fdlibm's tanhf on four float lanes, branch-free: the core of the
// mixedgemm GELU epilogue (detail::bias_gelu), in a header of its own so
// that its tests can drive every tanh argument directly.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace isp::apps::detail {

// Four float lanes (GCC/Clang vector extensions; SSE2 on x86-64).
using F4 = float __attribute__((vector_size(16)));
using I4 = std::int32_t __attribute__((vector_size(16)));
using U4 = std::uint32_t __attribute__((vector_size(16)));
inline constexpr std::size_t kLanes = 4;

constexpr F4 splat(float v) { return F4{v, v, v, v}; }

/// Per lane: `a` where `mask` is set, else `b`.
inline F4 select(I4 mask, F4 a, F4 b) {
  return std::bit_cast<F4>((mask & std::bit_cast<I4>(a)) |
                           (~mask & std::bit_cast<I4>(b)));
}
inline I4 select(I4 mask, I4 a, I4 b) { return (mask & a) | (~mask & b); }

/// fdlibm's tanhf, with the expm1f it calls inlined, on four lanes.  Every
/// lane computes every reduction path and keeps its own with a bitwise
/// select, so no branch depends on the data.  The arithmetic of each path is
/// fdlibm's, operation for operation, so each lane equals fdlibm tanhf bit
/// for bit.  tanhf calls expm1f on 2|a| >= 2 or on -2|a| <= 0, so below the
/// saturation point expm1f's reduction index k is 0, -1, -2, -3 or 3..26:
/// its k = 1 and k > 56 branches and its overflow filter never run here.
inline F4 tanh_lanes(F4 a) {
  const I4 bits = std::bit_cast<I4>(a);
  const I4 ix = bits & 0x7fffffff;
  const F4 ax = std::bit_cast<F4>(ix);
  // tanhf rounds to exactly ±1 from |a| >= 9.1 on (infinities included).
  // Those lanes and NaN lanes are discarded below; they compute on 0, so
  // no lane reaches the float-to-int conversion out of range.
  const I4 live = ax < 9.1F;
  const F4 s = select(live, ax, splat(0.0F));
  const I4 big = s >= 1.0F;
  const F4 u = select(big, s + s, -(s + s));  // expm1f's argument

  // expm1f(u): reduce u = k ln2 + x (x = hi - lo, c its rounding error).
  const I4 hu = std::bit_cast<I4>(u) & 0x7fffffff;
  const I4 reduce = hu > 0x3eb17218;  // |u| > ln2 / 2
  const I4 near = hu < 0x3f851592;    // |u| < 3 ln2 / 2 (u < 0 here)
  const F4 rounded =
      1.4426950216e+00F * u + select(big, splat(0.5F), splat(-0.5F));
  const I4 k = reduce & select(near, I4{} - 1,
                               __builtin_convertvector(rounded, I4));
  const F4 kf = __builtin_convertvector(k, F4);
  const F4 hi = u - kf * 6.9313812256e-01F;  // ln2_hi: exact product
  const F4 lo = kf * 9.0580006145e-06F;      // ln2_lo
  const F4 x = hi - lo;
  const F4 c = (hi - x) - lo;
  const F4 hfx = 0.5F * x;
  const F4 hxs = x * hfx;
  const F4 r1 =
      1.0F + hxs * (-3.3333335072e-02F +
                    hxs * (1.5873016091e-03F +
                           hxs * (-7.9365076090e-05F +
                                  hxs * (4.0082177293e-06F +
                                         hxs * -2.0109921195e-07F))));
  const F4 t = 3.0F - r1 * hfx;
  const F4 e = hxs * ((r1 - t) / (6.0F - x * t));
  const F4 ek = (x * (e - c) - c) - hxs;
  // k <= -2 and k >= 3 scale y by 2^k through its exponent; p = 2^-k.
  const U4 ku = std::bit_cast<U4>(k) << 23;
  const F4 p = std::bit_cast<F4>((127U << 23) - ku);
  const F4 y = select(k < -1, 1.0F - (ek - x),
                      select(k < 23, (1.0F - p) - (ek - x),
                             (x - (ek + p)) + 1.0F));
  const F4 scaled = std::bit_cast<F4>(std::bit_cast<U4>(y) + ku);
  F4 em1 = select(k == 0, x - (x * e - hxs),
                  select(k == -1, 0.5F * (x - ek) - 0.5F,
                         select(k < -1, scaled - 1.0F, scaled)));
  em1 = select(hu < 0x33000000, u, em1);  // |u| < 2^-25: expm1f(u) = u

  // tanhf from expm1f(u), then its tiny, saturated and NaN lanes.
  const F4 den = em1 + 2.0F;
  const F4 z = select(big, 1.0F - 2.0F / den, -em1 / den);
  F4 r = select(bits < 0, -z, z);
  r = select(ix < 0x24000000, a * (1.0F + a), r);  // |a| < 2^-55
  return select(live, r,
                select(a == a, select(bits < 0, splat(-1.0F), splat(1.0F)),
                       a + a));
}

}  // namespace isp::apps::detail
