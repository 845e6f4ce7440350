// Flat per-page maps whose unmapped entries are all-zero bytes.
//
// The storage backends keep four arrays with one entry per logical or
// physical page: the map, the reverse map, the OOB stamps and the
// checkpoint.  At the default geometry they hold ≈19 MiB, while a serving
// run touches a few thousand entries.  A PageMap stores its entries so that
// the "unmapped" value is all-zero bytes (PageCodec below).  A map of 2 MiB
// or more lives in a page-aligned anonymous mapping of its own, which reads
// as zero until written: its pages come in on first touch, so building one
// costs a mapping, not a fill, and a backend holds only the pages its runs
// touch (reading an untouched page costs no memory: it reads the shared
// zero page).  A checkpoint fold or a remount copies whole maps and so
// touches every page.  A map below 2 MiB is a plain heap array filled in
// the constructor: every page is resident from the start, so a small
// backend's data plane (storage_churn's geometry, the unit tests') never
// takes a first-touch fault, and a rebuilt small backend reuses memory the
// heap still holds.  clear() unmaps entries in place and keeps the pages
// resident; power_loss() uses it so the timed remount that follows stays
// fault-free.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/error.hpp"

namespace isp::flash {

/// How a PageMap stores a T: encode() sends the unmapped value to all-zero
/// bytes, decode() inverts it.  Unsigned words are stored bit-inverted, so
/// kNoPage (all ones) is stored as zero.
template <typename T>
struct PageCodec {
  static_assert(std::is_unsigned_v<T>, "specialise PageCodec for this type");
  static constexpr T encode(T v) { return static_cast<T>(~v); }
  static constexpr T decode(T stored) { return static_cast<T>(~stored); }
};

template <typename T>
class PageMap {
  using Codec = PageCodec<T>;
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  PageMap() = default;

  /// `size` entries, every one unmapped.
  explicit PageMap(std::size_t size) : size_(size) {
    if (size_ == 0) return;
    if (!own_mapping()) {
      data_ = static_cast<T*>(::operator new(bytes()));
      clear();
      return;
    }
    void* p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
  }

  PageMap(const PageMap&) = delete;
  PageMap& operator=(const PageMap&) = delete;
  PageMap(PageMap&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  PageMap& operator=(PageMap&& other) noexcept {
    if (this != &other) {
      deallocate();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~PageMap() { deallocate(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] T operator[](std::size_t i) const {
    ISP_DCHECK(i < size_, "page map index out of range");
    return Codec::decode(data_[i]);
  }
  void set(std::size_t i, T value) {
    ISP_DCHECK(i < size_, "page map index out of range");
    data_[i] = Codec::encode(value);
  }

  /// Unmap entries [first, first + count) in place.
  void clear(std::size_t first, std::size_t count) {
    ISP_DCHECK(first <= size_ && count <= size_ - first,
               "page map range out of range");
    if (count > 0) {
      std::memset(static_cast<void*>(data_ + first), 0, count * sizeof(T));
    }
  }
  /// Unmap every entry in place; the pages stay resident.
  void clear() { clear(0, size_); }

  /// Make this map's entries equal `other`'s (the same size).
  void copy_from(const PageMap& other) {
    ISP_CHECK(size_ == other.size_, "page map sizes differ");
    if (size_ > 0) {
      std::memcpy(static_cast<void*>(data_), other.data_, bytes());
    }
  }

 private:
  static constexpr std::size_t kOwnMappingBytes = std::size_t{2} << 20;

  [[nodiscard]] std::size_t bytes() const { return size_ * sizeof(T); }
  /// A mapping of its own from 2 MiB up; the heap below that.
  [[nodiscard]] bool own_mapping() const {
    return bytes() >= kOwnMappingBytes;
  }
  void deallocate() {
    if (data_ == nullptr) return;
    if (own_mapping()) {
      ::munmap(data_, bytes());
    } else {
      ::operator delete(data_);
    }
    data_ = nullptr;
    size_ = 0;
  }

  T* data_ = nullptr;  // stored (encoded) entries
  std::size_t size_ = 0;
};

}  // namespace isp::flash
