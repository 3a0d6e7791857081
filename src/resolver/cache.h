// Resolver-side DNS cache.
//
// The paper attributes the absence of end-user-visible failures to
// caching and retry (§2.3, §6): top-level referrals carry multi-day TTLs,
// so resolvers rarely need the root at all. This is the cache that makes
// that argument quantitative.
#pragma once

#include <cstdint>
#include <vector>

#include "net/clock.h"

namespace rootstress::resolver {

/// A TTL cache over a dense key space [0, key_space) (the value is
/// implicit: we only track whether the referral is still valid). Keys are
/// table indices, so lookups neither hash nor allocate.
class TtlCache {
 public:
  /// Allocates the whole table here, once: one expiry (8 B) per key.
  /// `capacity` bounds the entries held; it can only bind when
  /// capacity < key_space, and then inserting a new key into a full
  /// cache evicts the entry with the smallest expiry, a tie going to the
  /// smallest key. A zero capacity stores nothing.
  TtlCache(std::size_t capacity, std::size_t key_space);

  /// True if `key` (< key_space) is cached and fresh at `now`. An entry
  /// found expired is erased on the spot, so stale entries never pin
  /// capacity.
  bool hit(std::uint64_t key, net::SimTime now);

  /// Inserts/refreshes `key` (< key_space) until now + ttl.
  void put(std::uint64_t key, net::SimTime now, net::SimTime ttl);

  std::size_t size() const noexcept { return size_; }

 private:
  /// One eviction-order record, ordered by (expiry, key). The heap is
  /// lazy: a record whose expiry no longer matches its key's table entry
  /// (refreshed or already erased) is skipped when popped, so put() stays
  /// amortized O(log n).
  struct HeapEntry {
    net::SimTime expiry{};
    std::uint64_t key = 0;

    auto operator<=>(const HeapEntry&) const = default;
  };

  /// Only a cache smaller than its key space can fill up; one that cannot
  /// keeps no eviction records at all.
  bool can_fill() const noexcept { return capacity_ < expiry_.size(); }
  /// Erases the live entry that sorts first by (expiry, key).
  void evict_one();
  /// Drops stale and duplicate records when they dominate the heap
  /// (amortized O(1) per operation).
  void maybe_compact();

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::vector<net::SimTime> expiry_;  ///< per key; kAbsent when not held
  std::vector<HeapEntry> heap_;  ///< min-heap on (expiry, key), lazily pruned
};

}  // namespace rootstress::resolver
