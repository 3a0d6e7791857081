#include "dns/rrl.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace rootstress::dns {
namespace {

net::Ipv4Addr src(std::uint32_t v) { return net::Ipv4Addr(v); }

TEST(Rrl, DisabledAlwaysResponds) {
  RrlConfig config;
  config.enabled = false;
  ResponseRateLimiter rrl(config);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rrl.decide(src(1), 42, net::SimTime(0)), RrlAction::kRespond);
  }
  EXPECT_DOUBLE_EQ(rrl.suppression_rate(), 0.0);
}

TEST(Rrl, BurstThenSuppression) {
  RrlConfig config;
  config.responses_per_second = 5.0;
  config.burst = 10.0;
  config.slip = 0;  // no slip: clean drop behaviour
  ResponseRateLimiter rrl(config);
  int responded = 0;
  for (int i = 0; i < 100; ++i) {
    if (rrl.decide(src(1), 42, net::SimTime(0)) == RrlAction::kRespond) {
      ++responded;
    }
  }
  EXPECT_EQ(responded, 10);  // exactly the burst
  EXPECT_GT(rrl.suppression_rate(), 0.8);
}

TEST(Rrl, TokensRefillOverTime) {
  RrlConfig config;
  config.responses_per_second = 5.0;
  config.burst = 10.0;
  config.slip = 0;
  ResponseRateLimiter rrl(config);
  for (int i = 0; i < 20; ++i) {
    rrl.decide(src(1), 42, net::SimTime(0));
  }
  // After 2 seconds, ~10 tokens refill.
  int responded = 0;
  for (int i = 0; i < 20; ++i) {
    if (rrl.decide(src(1), 42, net::SimTime(2000)) == RrlAction::kRespond) {
      ++responded;
    }
  }
  EXPECT_EQ(responded, 10);
}

TEST(Rrl, SlipCadence) {
  RrlConfig config;
  config.responses_per_second = 0.0;
  config.burst = 0.0;
  config.slip = 2;  // every 2nd suppressed answer slips
  ResponseRateLimiter rrl(config);
  int slips = 0, drops = 0;
  for (int i = 0; i < 100; ++i) {
    switch (rrl.decide(src(1), 42, net::SimTime(0))) {
      case RrlAction::kSlip: ++slips; break;
      case RrlAction::kDrop: ++drops; break;
      default: break;
    }
  }
  EXPECT_EQ(slips, 50);
  EXPECT_EQ(drops, 50);
}

TEST(Rrl, DistinctBucketsAreIndependent) {
  RrlConfig config;
  config.responses_per_second = 1.0;
  config.burst = 1.0;
  ResponseRateLimiter rrl(config);
  // Different /24 blocks each get their own bucket.
  for (std::uint32_t block = 0; block < 100; ++block) {
    EXPECT_EQ(rrl.decide(src(block << 8), 42, net::SimTime(0)),
              RrlAction::kRespond);
  }
  // Same /24, different host: same bucket, now empty.
  EXPECT_NE(rrl.decide(src((50u << 8) | 7), 42, net::SimTime(0)),
            RrlAction::kRespond);
}

TEST(Rrl, DifferentQnamesDifferentBuckets) {
  RrlConfig config;
  config.responses_per_second = 0.0;
  config.burst = 1.0;
  ResponseRateLimiter rrl(config);
  EXPECT_EQ(rrl.decide(src(1), 1, net::SimTime(0)), RrlAction::kRespond);
  EXPECT_EQ(rrl.decide(src(1), 2, net::SimTime(0)), RrlAction::kRespond);
  EXPECT_NE(rrl.decide(src(1), 1, net::SimTime(0)), RrlAction::kRespond);
}

TEST(Rrl, ExpireIdleDropsState) {
  ResponseRateLimiter rrl;
  for (std::uint32_t i = 0; i < 100; ++i) {
    rrl.decide(src(i << 8), 42, net::SimTime(0));
  }
  EXPECT_EQ(rrl.bucket_count(), 100u);
  // The first decision past the sweep interval drops every refilled
  // bucket; the returning source starts over with a full burst.
  EXPECT_EQ(rrl.decide(src(1u << 8), 42, net::SimTime::from_minutes(10)),
            RrlAction::kRespond);
  EXPECT_EQ(rrl.bucket_count(), 1u);
}

TEST(Rrl, IdleSweepMatchesANeverExpiringReferenceWithABoundedTable) {
  // 2^20 spoofed /24s, each seen once, plus a pool of 1024 /24s x 2 names
  // revisited about every two seconds (on both sides of the 2 s sweep
  // interval), 8 hot /24s well past their rate, and 64 /24s that send
  // bursts of 12 after random idle gaps (so a bucket comes back part
  // refilled or full). The clock advances 1 ms per step. Every decision
  // must match a token bucket per (/24, name) that never forgets a pair.
  const RrlConfig config;  // 5/s, burst 10, slip 2, /24 blocks
  ResponseRateLimiter rrl(config);
  constexpr std::uint32_t kCold = 1u << 20;
  constexpr std::uint32_t kPool = 1024;
  constexpr std::uint32_t kHot = 8;
  constexpr std::uint32_t kBursty = 64;
  constexpr std::uint64_t kNames[2] = {0x9e3779b97f4a7c15ull,
                                       0xc2b2ae3d27d4eb4full};

  struct RefBucket {
    bool seen = false;
    double tokens = 0.0;
    net::SimTime last{};
    int drop_count = 0;
  };
  // Slots: cold /24s (name 0), then pool, hot and bursty /24s x 2 names.
  std::vector<RefBucket> reference(kCold + 2 * (kPool + kHot + kBursty));
  const auto reference_decide = [&](RefBucket& b, net::SimTime now) {
    if (!b.seen) {
      b.seen = true;
      b.tokens = config.burst;
      b.last = now;
    } else if (const double elapsed_s = (now - b.last).seconds();
               elapsed_s > 0) {
      b.tokens = std::min(config.burst,
                          b.tokens + elapsed_s * config.responses_per_second);
      b.last = now;
    }
    if (b.tokens >= 1.0) {
      b.tokens -= 1.0;
      b.drop_count = 0;
      return RrlAction::kRespond;
    }
    ++b.drop_count;
    return b.drop_count % config.slip == 0 ? RrlAction::kSlip
                                           : RrlAction::kDrop;
  };

  std::size_t decisions = 0;
  std::size_t max_buckets = 0;
  std::size_t late_revisits = 0;  // pool pairs idle past two intervals
  std::size_t counts[3] = {0, 0, 0};
  util::Rng rng(7);
  const auto check = [&](std::uint32_t block, int name, RefBucket& ref,
                         net::SimTime now) {
    const std::uint32_t host = static_cast<std::uint32_t>(rng.below(256));
    const RrlAction got =
        rrl.decide(src((block << 8) | host), kNames[name], now);
    const RrlAction want = reference_decide(ref, now);
    ASSERT_EQ(got, want) << "decision " << decisions << " block " << block;
    ++counts[static_cast<int>(got)];
    ++decisions;
    max_buckets = std::max(max_buckets, rrl.bucket_count());
  };
  for (std::uint32_t i = 0; i < kCold; ++i) {
    const net::SimTime now(i);
    // An odd multiplier permutes [0, 2^20): every cold /24 comes once.
    const std::uint32_t cold = (i * 0x9e3779b1u) & (kCold - 1);
    check(cold, 0, reference[cold], now);

    const auto p = static_cast<std::uint32_t>(rng.below(kPool));
    const int name = static_cast<int>(rng.below(2));
    RefBucket& pool = reference[kCold + 2 * p + name];
    if (pool.seen && (now - pool.last).ms > 4000) ++late_revisits;
    check(kCold + p, name, pool, now);

    if (i % 8 == 0) {
      const auto h = static_cast<std::uint32_t>(rng.below(kHot));
      check(kCold + kPool + h, 0, reference[kCold + 2 * (kPool + h)], now);
    }
    if (i % 16 == 0) {
      const auto b =
          kPool + kHot + static_cast<std::uint32_t>(rng.below(kBursty));
      for (int k = 0; k < 12 && !HasFatalFailure(); ++k) {
        check(kCold + b, 1, reference[kCold + 2 * b + 1], now);
      }
    }
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(decisions, 1'000'000u);
  EXPECT_GT(counts[static_cast<int>(RrlAction::kRespond)], 0u);
  EXPECT_GT(counts[static_cast<int>(RrlAction::kDrop)], 0u);
  EXPECT_GT(counts[static_cast<int>(RrlAction::kSlip)], 0u);
  EXPECT_GT(late_revisits, 1000u);
  // Two 2 s sweep intervals of cold /24s, plus every other pair.
  EXPECT_LE(max_buckets, 2 * 2000 + 2 * (kPool + kHot + kBursty));
}

TEST(Rrl, DynamicDisableRespondsAndKeepsBucketState) {
  // A playbook can flip RRL mid-run. Disabling must answer everything
  // immediately; re-enabling must resume from the drained bucket rather
  // than granting a fresh burst.
  RrlConfig config;
  config.responses_per_second = 0.0;  // no refill: bucket state is static
  config.burst = 5.0;
  config.slip = 0;
  ResponseRateLimiter rrl(config);
  for (int i = 0; i < 10; ++i) {
    rrl.decide(src(1), 42, net::SimTime(0));  // drain the bucket
  }
  ASSERT_EQ(rrl.decide(src(1), 42, net::SimTime(0)), RrlAction::kDrop);

  rrl.set_enabled(false);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rrl.decide(src(1), 42, net::SimTime(0)), RrlAction::kRespond);
  }

  rrl.set_enabled(true);
  EXPECT_EQ(rrl.decide(src(1), 42, net::SimTime(0)), RrlAction::kDrop);
}

TEST(Rrl, ExpectedSuppressionClamped) {
  EXPECT_DOUBLE_EQ(expected_suppression(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(expected_suppression(0.6), 0.6);
  EXPECT_DOUBLE_EQ(expected_suppression(1.5), 1.0);
}

}  // namespace
}  // namespace rootstress::dns
