// Flat word-packed bitsets for the storage data plane's hot indexes.
//
// The storage backends' erase-unit pool (flash/unit_pool.hpp) keeps three
// kinds of per-page / per-unit state that its hot loops scan: which units
// are free (allocation), which are full (GC/reclaim victim selection), and
// which physical pages hold valid data (relocation walks).  Scanning
// vectors of structs for those answers is O(pages); packing each predicate
// into a bitset makes every scan a ctz / popcount word walk.  These helpers
// are the word mechanics, and the metadata log's dirty-unit set uses them
// too.
//
// All functions treat the bitset as a plain std::vector<std::uint64_t> the
// caller sizes via bits_resize; out-of-range bits are the caller's bug
// (checked only in debug builds to keep the hot path branch-free).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace isp {

inline constexpr std::uint64_t kBitsPerWord = 64;

/// Size `words` to hold `bits` bits, zero-initialised.
inline void bits_resize(std::vector<std::uint64_t>& words,
                        std::uint64_t bits) {
  words.assign((bits + kBitsPerWord - 1) / kBitsPerWord, 0);
}

/// Clear every bit without reallocating.
inline void bits_clear_all(std::vector<std::uint64_t>& words) {
  for (auto& w : words) w = 0;
}

[[nodiscard]] inline bool bit_test(const std::vector<std::uint64_t>& words,
                                   std::uint64_t i) {
  ISP_DCHECK(i / kBitsPerWord < words.size(), "bit index out of range");
  return (words[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1u;
}

inline void bit_set(std::vector<std::uint64_t>& words, std::uint64_t i) {
  ISP_DCHECK(i / kBitsPerWord < words.size(), "bit index out of range");
  words[i / kBitsPerWord] |= std::uint64_t{1} << (i % kBitsPerWord);
}

inline void bit_clear(std::vector<std::uint64_t>& words, std::uint64_t i) {
  ISP_DCHECK(i / kBitsPerWord < words.size(), "bit index out of range");
  words[i / kBitsPerWord] &= ~(std::uint64_t{1} << (i % kBitsPerWord));
}

/// Set every bit in [begin, end) with whole-word masks — the bulk twin of
/// bit_set for contiguous freshly-programmed page runs.
inline void bits_set_range(std::vector<std::uint64_t>& words,
                           std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return;
  ISP_DCHECK((end - 1) / kBitsPerWord < words.size(),
             "bit range out of bounds");
  std::uint64_t wi = begin / kBitsPerWord;
  const std::uint64_t last_wi = (end - 1) / kBitsPerWord;
  std::uint64_t mask = ~std::uint64_t{0} << (begin % kBitsPerWord);
  if (wi == last_wi) {
    if (end % kBitsPerWord != 0) {
      mask &= (std::uint64_t{1} << (end % kBitsPerWord)) - 1;
    }
    words[wi] |= mask;
    return;
  }
  words[wi] |= mask;
  for (++wi; wi < last_wi; ++wi) words[wi] = ~std::uint64_t{0};
  if (end % kBitsPerWord != 0) {
    words[last_wi] |= (std::uint64_t{1} << (end % kBitsPerWord)) - 1;
  } else {
    words[last_wi] = ~std::uint64_t{0};
  }
}

/// Lowest set bit index in [from, limit), or `limit` if none.  The ctz walk
/// that replaces linear free-block / free-page scans.
[[nodiscard]] inline std::uint64_t bits_find_first(
    const std::vector<std::uint64_t>& words, std::uint64_t from,
    std::uint64_t limit) {
  if (from >= limit) return limit;
  std::uint64_t wi = from / kBitsPerWord;
  std::uint64_t w = words[wi] & (~std::uint64_t{0} << (from % kBitsPerWord));
  while (true) {
    if (w != 0) {
      const std::uint64_t i =
          wi * kBitsPerWord +
          static_cast<std::uint64_t>(std::countr_zero(w));
      return i < limit ? i : limit;
    }
    ++wi;
    if (wi * kBitsPerWord >= limit) return limit;
    w = words[wi];
  }
}

/// Popcount of the bits in [begin, end).
[[nodiscard]] inline std::uint64_t bits_count(
    const std::vector<std::uint64_t>& words, std::uint64_t begin,
    std::uint64_t end) {
  std::uint64_t total = 0;
  std::uint64_t wi = begin / kBitsPerWord;
  const std::uint64_t we = end / kBitsPerWord;
  if (begin >= end) return 0;
  std::uint64_t first = words[wi] & (~std::uint64_t{0} << (begin % kBitsPerWord));
  if (wi == we) {
    first &= (std::uint64_t{1} << (end % kBitsPerWord)) - 1;
    return static_cast<std::uint64_t>(std::popcount(first));
  }
  total += static_cast<std::uint64_t>(std::popcount(first));
  for (++wi; wi < we; ++wi) {
    total += static_cast<std::uint64_t>(std::popcount(words[wi]));
  }
  if (end % kBitsPerWord != 0) {
    const std::uint64_t last =
        words[we] & ((std::uint64_t{1} << (end % kBitsPerWord)) - 1);
    total += static_cast<std::uint64_t>(std::popcount(last));
  }
  return total;
}

/// Invoke fn(i) for every set bit in [begin, end), ascending — the same
/// visit order as the page-by-page loops this replaces.  Each word is
/// snapshotted before iterating, so fn may clear the bit it was called for
/// (relocation walks do) and may set bits outside [begin, end) without
/// perturbing the walk.
template <typename Fn>
void bits_for_each(const std::vector<std::uint64_t>& words,
                   std::uint64_t begin, std::uint64_t end, Fn&& fn) {
  if (begin >= end) return;
  std::uint64_t wi = begin / kBitsPerWord;
  const std::uint64_t last_wi = (end - 1) / kBitsPerWord;
  for (; wi <= last_wi; ++wi) {
    std::uint64_t w = words[wi];
    if (wi == begin / kBitsPerWord) {
      w &= ~std::uint64_t{0} << (begin % kBitsPerWord);
    }
    if (wi == last_wi && end % kBitsPerWord != 0) {
      w &= (std::uint64_t{1} << (end % kBitsPerWord)) - 1;
    }
    while (w != 0) {
      const auto bit = static_cast<std::uint64_t>(std::countr_zero(w));
      fn(wi * kBitsPerWord + bit);
      w &= w - 1;
    }
  }
}

}  // namespace isp
