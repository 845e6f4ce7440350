#include "serve/memo.hpp"

#include <iterator>
#include <utility>

#include "common/digest.hpp"
#include "common/error.hpp"

namespace isp::serve {

std::uint64_t SimKey::digest() const {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, job_class);
  h = fnv1a(h, backend);
  h = fnv1a(h, static_cast<std::uint64_t>(on_host ? 1 : 0) |
                   (faulted ? 2 : 0) | (power_loss_armed ? 4 : 0));
  h = fnv1a(h, link_share_bits);
  h = fnv1a(h, fault_seed);
  h = fnv1a(h, power_loss_after);
  return schedule.digest(h);
}

SimMemoCache::SimMemoCache(std::size_t capacity) : capacity_(capacity) {
  ISP_CHECK(capacity_ >= 1, "memo cache needs capacity for one entry");
}

Memoized* SimMemoCache::find(const SimKey& key) {
  auto [it, end] = index_.equal_range(key.digest());
  for (; it != end; ++it) {
    // Digest-verified: the full key must match, not just its hash.
    if (it->second->key == key) return &it->second->value;
  }
  return nullptr;
}

void SimMemoCache::insert(const SimKey& key, SimResult value) {
  ISP_CHECK(find(key) == nullptr, "memo cache double insert");
  if (fifo_.size() == capacity_) {
    auto [it, end] = index_.equal_range(fifo_.front().key.digest());
    while (it != end && it->second != fifo_.begin()) ++it;
    ISP_CHECK(it != end, "memo cache FIFO lost its entry");
    index_.erase(it);
    fifo_.pop_front();
    ++evictions_;
  }
  const std::uint64_t digest = key.digest();
  fifo_.push_back(Entry{key, Memoized{std::move(value), std::nullopt}});
  index_.emplace(digest, std::prev(fifo_.end()));
}

}  // namespace isp::serve
