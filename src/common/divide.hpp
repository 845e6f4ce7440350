// Exact division by a fixed 32-bit divisor without a divide instruction.
//
// The storage pool maps a physical page to its erase unit for every
// overwritten, trimmed and remounted page; a 64-bit hardware divide there
// costs tens of cycles a page.  With m = floor((2^64 - 1) / d),
//   n / d == ((n + 1) * m) >> 64
// for every n < 2^32 and every 32-bit d >= 1 (d = 1 included): writing
// n = q*d + s, the product over 2^64 is (n + 1) / d * (1 - (r + 1) / 2^64)
// with r = (2^64 - 1) mod d < d, which lies in [q, q + 1) as long as
// d * (n + 1) <= 2^64.  One 64x64->128 multiply replaces the divide.
#pragma once

#include <cstdint>

#include "common/error.hpp"

namespace isp {

class ExactDivider {
 public:
  /// Largest dividend the form is exact for.
  static constexpr std::uint64_t kMaxDividend = 0xFFFFFFFFu;

  explicit ExactDivider(std::uint32_t divisor)
      : reciprocal_(~std::uint64_t{0} / divisor) {}

  /// n / divisor, for n <= kMaxDividend.
  [[nodiscard]] std::uint64_t operator()(std::uint64_t n) const {
    ISP_DCHECK(n <= kMaxDividend, "dividend past 32 bits");
    using Wide = unsigned __int128;
    return static_cast<std::uint64_t>((Wide{n + 1} * reciprocal_) >> 64);
  }

 private:
  std::uint64_t reciprocal_;
};

}  // namespace isp
