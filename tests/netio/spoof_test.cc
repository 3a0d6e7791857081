#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "netio/spoof.h"

namespace rootstress::netio {
namespace {

TEST(SpoofShard, HeavyHitterTableIsSharedAcrossShards) {
  SpoofConfig config;
  SpoofShard a(config, 0, 4);
  SpoofShard b(config, 3, 4);
  ASSERT_EQ(a.heavy_hitters().size(),
            static_cast<std::size_t>(config.heavy_hitters));
  EXPECT_EQ(a.heavy_hitters(), b.heavy_hitters());
}

TEST(SpoofShard, DrawStreamIsReproduciblePerWorkerIndex) {
  SpoofConfig config;
  SpoofShard first(config, 2, 8);
  SpoofShard again(config, 2, 8);
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(first.next(), again.next()) << "draw " << i;
  }
}

TEST(SpoofShard, WorkersDrawIndependentStreams) {
  SpoofConfig config;
  SpoofShard w0(config, 0, 2);
  SpoofShard w1(config, 1, 2);
  int same = 0;
  for (int i = 0; i < 256; ++i) {
    if (w0.next() == w1.next()) ++same;
  }
  // Streams overlap only by chance (heavy hitters repeat, so a few
  // collisions are expected — identical streams would match all 256).
  EXPECT_LT(same, 128);
}

TEST(SpoofShard, StreamIndependentOfWorkerCount) {
  // The same worker index draws the same stream no matter how many other
  // workers exist — the counter-stream discipline the engine uses.
  SpoofConfig config;
  SpoofShard in2(config, 1, 2);
  SpoofShard in8(config, 1, 8);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(in2.next(), in8.next());
  }
}

TEST(SpoofShard, ZeroUniformFractionDrawsOnlyHeavyHitters) {
  SpoofConfig config;
  config.spoof_uniform_fraction = 0.0;
  SpoofShard shard(config, 0, 1);
  std::unordered_set<std::uint32_t> table;
  for (const net::Ipv4Addr addr : shard.heavy_hitters()) {
    table.insert(addr.value());
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(table.count(shard.next().value())) << "draw " << i;
  }
}

TEST(SpoofShard, HeadOfTableDominatesByRankWeight) {
  // 1/rank weights: the top hitter must be drawn more than the 100th.
  SpoofConfig config;
  config.spoof_uniform_fraction = 0.0;
  SpoofShard shard(config, 0, 1);
  const std::uint32_t top = shard.heavy_hitters()[0].value();
  const std::uint32_t tail = shard.heavy_hitters()[99].value();
  int top_draws = 0;
  int tail_draws = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint32_t v = shard.next().value();
    if (v == top) ++top_draws;
    if (v == tail) ++tail_draws;
  }
  EXPECT_GT(top_draws, tail_draws * 10);
}

TEST(SpoofShard, UniformFractionProducesFreshAddresses) {
  SpoofConfig config;
  config.spoof_uniform_fraction = 1.0;
  SpoofShard shard(config, 0, 1);
  std::unordered_set<std::uint32_t> seen;
  for (int i = 0; i < 2000; ++i) {
    seen.insert(shard.next().value());
  }
  // Uniform 32-bit draws essentially never repeat in 2000 samples.
  EXPECT_GT(seen.size(), 1990u);
}

}  // namespace
}  // namespace rootstress::netio
