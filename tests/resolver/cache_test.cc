#include "resolver/cache.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "util/rng.h"

namespace rootstress::resolver {
namespace {

TEST(Cache, MissThenHitThenExpire) {
  TtlCache cache(10000, 16);
  EXPECT_FALSE(cache.hit(1, net::SimTime(0)));
  cache.put(1, net::SimTime(0), net::SimTime::from_hours(1));
  EXPECT_TRUE(cache.hit(1, net::SimTime(10)));
  EXPECT_TRUE(cache.hit(1, net::SimTime::from_minutes(59)));
  EXPECT_FALSE(cache.hit(1, net::SimTime::from_hours(1)));
  EXPECT_FALSE(cache.hit(1, net::SimTime::from_hours(2)));
}

TEST(Cache, RefreshExtends) {
  TtlCache cache(10000, 16);
  cache.put(1, net::SimTime(0), net::SimTime::from_minutes(10));
  cache.put(1, net::SimTime::from_minutes(5), net::SimTime::from_minutes(10));
  EXPECT_TRUE(cache.hit(1, net::SimTime::from_minutes(12)));
}

TEST(Cache, CapacityEvictsClosestToExpiry) {
  TtlCache cache(2, 16);
  cache.put(1, net::SimTime(0), net::SimTime::from_minutes(5));   // soonest
  cache.put(2, net::SimTime(0), net::SimTime::from_minutes(50));
  cache.put(3, net::SimTime(0), net::SimTime::from_minutes(50));  // evicts 1
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.hit(1, net::SimTime(1)));
  EXPECT_TRUE(cache.hit(2, net::SimTime(1)));
  EXPECT_TRUE(cache.hit(3, net::SimTime(1)));
}

// Equal expiries are decided by key, never by insertion order or heap
// layout: the smallest key goes first.
TEST(Cache, EvictionTieBreaksBySmallestKey) {
  for (const bool ascending : {true, false}) {
    TtlCache cache(3, 16);
    const std::uint64_t keys[] = {4, 9, 6};
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t key = keys[ascending ? i : 2 - i];
      cache.put(key, net::SimTime(0), net::SimTime::from_minutes(30));
    }
    cache.put(12, net::SimTime(0), net::SimTime::from_minutes(30));  // evicts 4
    cache.put(2, net::SimTime(0), net::SimTime::from_minutes(30));   // evicts 6
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_FALSE(cache.hit(4, net::SimTime(1))) << "ascending " << ascending;
    EXPECT_FALSE(cache.hit(6, net::SimTime(1))) << "ascending " << ascending;
    EXPECT_TRUE(cache.hit(9, net::SimTime(1))) << "ascending " << ascending;
    EXPECT_TRUE(cache.hit(12, net::SimTime(1))) << "ascending " << ascending;
    EXPECT_TRUE(cache.hit(2, net::SimTime(1))) << "ascending " << ascending;
  }
}

// Regression: a zero-capacity cache used to evict from an empty map
// (*begin() on end(), UB). It must simply store nothing.
TEST(Cache, ZeroCapacityStoresNothing) {
  TtlCache cache(0, 16);
  cache.put(1, net::SimTime(0), net::SimTime::from_hours(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.hit(1, net::SimTime(1)));
}

// Regression: an entry found expired used to stay in the map (pinning
// capacity until the next sweep) — hit() erases it on the spot.
TEST(Cache, ExpiredHitEvictsTheEntry) {
  TtlCache cache(2, 16);
  cache.put(1, net::SimTime(0), net::SimTime::from_minutes(1));
  EXPECT_FALSE(cache.hit(1, net::SimTime::from_minutes(2)));
  EXPECT_EQ(cache.size(), 0u) << "expired entry pinned its slot";
  // The freed slot is usable again without evicting anything live.
  cache.put(2, net::SimTime(0), net::SimTime::from_minutes(50));
  cache.put(3, net::SimTime(0), net::SimTime::from_minutes(50));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.hit(2, net::SimTime(1)));
  EXPECT_TRUE(cache.hit(3, net::SimTime(1)));
}

// Heavy churn far past capacity: the lazy eviction heap must keep the
// cache bounded and always sacrifice the entry closest to expiry.
TEST(Cache, ChurnKeepsCapacityBoundAndEvictsSoonest) {
  constexpr std::size_t kCapacity = 32;
  TtlCache cache(kCapacity, 1000);
  // Ascending expiries: every insertion beyond capacity evicts the
  // oldest-expiry key, so exactly the last kCapacity keys survive.
  for (std::uint64_t key = 0; key < 1000; ++key) {
    cache.put(key, net::SimTime(0),
              net::SimTime::from_minutes(static_cast<double>(key + 1)));
    ASSERT_LE(cache.size(), kCapacity);
  }
  EXPECT_EQ(cache.size(), kCapacity);
  for (std::uint64_t key = 1000 - kCapacity; key < 1000; ++key) {
    EXPECT_TRUE(cache.hit(key, net::SimTime(1))) << "lost key " << key;
  }
  EXPECT_FALSE(cache.hit(0, net::SimTime(1)));
  EXPECT_FALSE(cache.hit(1000 - kCapacity - 1, net::SimTime(1)));
}

// Refreshing one key repeatedly must not bloat the eviction heap into
// evicting live entries (stale heap records are skipped, not trusted).
TEST(Cache, RefreshChurnDoesNotEvictLiveEntries) {
  TtlCache cache(2, 16);
  cache.put(7, net::SimTime(0), net::SimTime::from_minutes(200));
  for (int round = 0; round < 500; ++round) {
    cache.put(8, net::SimTime(round), net::SimTime::from_minutes(100));
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.hit(7, net::SimTime(1000)));
  EXPECT_TRUE(cache.hit(8, net::SimTime(1000)));
}

/// The documented rule, written the obvious way: held keys with their
/// expiries, plus the eviction order as a sorted (expiry, key) set.
class ReferenceCache {
 public:
  explicit ReferenceCache(std::size_t capacity) : capacity_(capacity) {}

  bool hit(std::uint64_t key, net::SimTime now) {
    const auto it = expiry_.find(key);
    if (it == expiry_.end()) return false;
    if (now < it->second) return true;
    order_.erase({it->second, key});
    expiry_.erase(it);
    return false;
  }

  void put(std::uint64_t key, net::SimTime now, net::SimTime ttl) {
    if (capacity_ == 0) return;
    const auto it = expiry_.find(key);
    if (it != expiry_.end()) {
      order_.erase({it->second, key});
    } else if (expiry_.size() >= capacity_) {
      const auto victim = order_.begin();
      expiry_.erase(victim->second);
      order_.erase(victim);
    }
    expiry_[key] = now + ttl;
    order_.insert({now + ttl, key});
  }

  std::size_t size() const { return expiry_.size(); }

 private:
  std::size_t capacity_;
  std::map<std::uint64_t, net::SimTime> expiry_;
  std::set<std::pair<net::SimTime, std::uint64_t>> order_;
};

// 20,000 seeded operations with the capacity below the key space, a
// clock that moves forward and (rarely) back, and TTLs from a small set
// so equal expiries are common: every answer and every size must match
// the reference model, through evictions, expiries, refreshes to the
// same expiry and heap compactions.
TEST(Cache, MatchesReferenceModel) {
  constexpr std::size_t kKeySpace = 40;
  for (const std::size_t capacity : {1u, 7u, 25u}) {
    TtlCache cache(capacity, kKeySpace);
    ReferenceCache model(capacity);
    util::Rng rng(0xcace + capacity);
    std::int64_t now = 0;
    for (int op = 0; op < 20000; ++op) {
      if (rng.chance(0.3)) now += static_cast<std::int64_t>(rng.below(3));
      if (rng.chance(0.01)) now -= 2;
      const std::uint64_t key = rng.below(kKeySpace);
      const net::SimTime t(now);
      if (rng.chance(0.5)) {
        ASSERT_EQ(cache.hit(key, t), model.hit(key, t))
            << "capacity " << capacity << " op " << op << " key " << key;
      } else {
        const net::SimTime ttl(1 + static_cast<std::int64_t>(rng.below(4)));
        cache.put(key, t, ttl);
        model.put(key, t, ttl);
      }
      ASSERT_EQ(cache.size(), model.size())
          << "capacity " << capacity << " op " << op;
    }
  }
}

}  // namespace
}  // namespace rootstress::resolver
