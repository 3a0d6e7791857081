#include "resolver/cache.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>

namespace rootstress::resolver {

namespace {

/// Table value of a key the cache does not hold; no now + ttl reaches it.
constexpr net::SimTime kAbsent{std::numeric_limits<std::int64_t>::min()};

}  // namespace

TtlCache::TtlCache(std::size_t capacity, std::size_t key_space)
    : capacity_(capacity), expiry_(key_space, kAbsent) {}

bool TtlCache::hit(std::uint64_t key, net::SimTime now) {
  assert(key < expiry_.size());
  net::SimTime& expiry = expiry_[key];
  if (now < expiry) return true;
  if (expiry != kAbsent) {
    // Expired: release the slot immediately instead of letting a dead
    // entry pin capacity (and force a live eviction).
    expiry = kAbsent;
    --size_;
  }
  return false;
}

void TtlCache::put(std::uint64_t key, net::SimTime now, net::SimTime ttl) {
  assert(key < expiry_.size());
  if (capacity_ == 0) return;  // a zero-capacity cache stores nothing
  net::SimTime& expiry = expiry_[key];
  if (expiry == kAbsent) {
    if (size_ >= capacity_) evict_one();
    ++size_;
  }
  expiry = now + ttl;
  if (!can_fill()) return;
  heap_.push_back(HeapEntry{expiry, key});
  // std:: heap algorithms build max-heaps; std::greater keeps the record
  // that sorts first by (expiry, key) on top.
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  maybe_compact();
}

void TtlCache::evict_one() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    // Stale records (the entry was refreshed to another expiry, or
    // already erased) are skipped; a match is the live entry that sorts
    // first by (expiry, key).
    net::SimTime& expiry = expiry_[top.key];
    if (expiry == top.expiry) {
      expiry = kAbsent;
      --size_;
      return;
    }
  }
  // Every live entry has a heap record, so an exhausted heap means an
  // empty cache; nothing to evict.
}

void TtlCache::maybe_compact() {
  if (heap_.size() <= 2 * size_ + 32) return;
  std::erase_if(heap_, [this](const HeapEntry& record) {
    return expiry_[record.key] != record.expiry;
  });
  // A key re-put at an expiry it had before leaves identical records;
  // keep one. An ascending array already satisfies the heap order.
  std::sort(heap_.begin(), heap_.end());
  heap_.erase(std::unique(heap_.begin(), heap_.end()), heap_.end());
}

}  // namespace rootstress::resolver
