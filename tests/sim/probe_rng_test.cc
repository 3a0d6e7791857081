#include "sim/probe_rng.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

namespace rootstress::sim {
namespace {

TEST(ProbeRng, StreamKeyIsAPureFunctionOfItsInputs) {
  const net::SimTime t(123456);
  const std::uint64_t a = probe_stream_key(probe_key_prefix(7, 3, 991), t);
  // Recomputing anywhere, any number of times, gives the same key.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(probe_stream_key(probe_key_prefix(7, 3, 991), t), a);
  }
  // Every component of the identity matters.
  EXPECT_NE(probe_stream_key(probe_key_prefix(8, 3, 991), t), a);
  EXPECT_NE(probe_stream_key(probe_key_prefix(7, 4, 991), t), a);
  EXPECT_NE(probe_stream_key(probe_key_prefix(7, 3, 992), t), a);
  EXPECT_NE(probe_stream_key(probe_key_prefix(7, 3, 991),
                             net::SimTime(123457)),
            a);
}

TEST(ProbeRng, DrawsIndependentOfOtherStreams) {
  // The draws one probe makes must not depend on what other probes drew
  // before it — that is the property that makes probing parallelizable.
  util::Rng alone = probe_rng(probe_key_prefix(42, 1, 10), net::SimTime(1000));
  const double d1 = alone.uniform(0.0, 1.0);
  const double d2 = alone.uniform(0.0, 1.0);

  // Interleave: exercise a bunch of other streams, then redo ours.
  for (int vp = 0; vp < 50; ++vp) {
    util::Rng other = probe_rng(probe_key_prefix(42, 1, vp + 100),
                                net::SimTime(1000));
    (void)other.uniform(0.0, 1.0);
  }
  util::Rng again = probe_rng(probe_key_prefix(42, 1, 10), net::SimTime(1000));
  EXPECT_DOUBLE_EQ(again.uniform(0.0, 1.0), d1);
  EXPECT_DOUBLE_EQ(again.uniform(0.0, 1.0), d2);
}

TEST(ProbeRng, OrderingOfConstructionDoesNotMatter) {
  // Build the same set of streams in two different orders; each stream's
  // first draw must match its counterpart.
  std::vector<double> forward;
  for (int vp = 0; vp < 20; ++vp) {
    util::Rng rng = probe_rng(probe_key_prefix(9, 2, vp), net::SimTime(5000));
    forward.push_back(rng.uniform(0.0, 1.0));
  }
  std::vector<double> backward(20);
  for (int vp = 19; vp >= 0; --vp) {
    util::Rng rng = probe_rng(probe_key_prefix(9, 2, vp), net::SimTime(5000));
    backward[static_cast<std::size_t>(vp)] = rng.uniform(0.0, 1.0);
  }
  EXPECT_EQ(forward, backward);
}

TEST(ProbeRng, NearbyKeysDoNotCollide) {
  // Adjacent (service, vp, time) tuples — the dense case the engine
  // generates — must produce distinct stream keys.
  std::unordered_set<std::uint64_t> keys;
  for (int s = 0; s < 14; ++s) {
    for (int vp = 0; vp < 64; ++vp) {
      for (std::int64_t ms = 0; ms < 4; ++ms) {
        keys.insert(probe_stream_key(probe_key_prefix(1, s, vp),
                                     net::SimTime(ms * 240000)));
      }
    }
  }
  EXPECT_EQ(keys.size(), 14u * 64u * 4u);
}

TEST(ProbeRng, PrefixedKeyEqualsStreamKey) {
  // The engine keys each probe from a prefix kept per (service, VP); the
  // key must equal the four serial mix64 rounds it was defined by.
  const auto reference = [](std::uint64_t seed, int service, int vp,
                            std::int64_t ms) {
    std::uint64_t key = util::mix64(seed ^ 0x9e3779b97f4a7c15ull);
    key = util::mix64(
        key ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(service)) *
               0x100000001b3ull));
    key = util::mix64(
        key ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(vp)) *
               0xc2b2ae3d27d4eb4full));
    return util::mix64(key ^ static_cast<std::uint64_t>(ms));
  };
  util::Rng draw(2024);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t seed = draw.next();
    const auto service = static_cast<int>(draw.below(14));
    const auto vp = static_cast<int>(draw.below(20000));
    const auto ms = static_cast<std::int64_t>(draw.below(1ull << 40)) -
                    (std::int64_t{1} << 39);
    const net::SimTime when(ms);
    const std::uint64_t expected = reference(seed, service, vp, ms);
    ASSERT_EQ(probe_stream_key(probe_key_prefix(seed, service, vp), when),
              expected)
        << "seed " << seed << " service " << service << " vp " << vp;
  }
}

TEST(ProbeRng, SeedZeroAndSeedOneDiffer) {
  EXPECT_NE(probe_stream_key(probe_key_prefix(0, 0, 0), net::SimTime(0)),
            probe_stream_key(probe_key_prefix(1, 0, 0), net::SimTime(0)));
}

}  // namespace
}  // namespace rootstress::sim
