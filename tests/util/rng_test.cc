#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace rootstress::util {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng parent(7);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  Rng c1_again = parent.fork(1);
  EXPECT_EQ(c1.next(), c1_again.next());
  EXPECT_NE(c1.next(), c2.next());
  // Forking does not advance the parent.
  Rng parent2(7);
  parent2.fork(99);
  Rng parent3(7);
  EXPECT_EQ(parent2.next(), parent3.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, UniformRange) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 10.0);
    ASSERT_GE(u, -5.0);
    ASSERT_LT(u, 10.0);
  }
}

class RngBelowTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBelowTest, StaysBelowBoundAndCoversRange) {
  const std::uint64_t n = GetParam();
  Rng rng(5 + n);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.below(n);
    ASSERT_LT(v, n);
    if (n <= 16) seen.insert(v);
  }
  if (n <= 16) {
    EXPECT_EQ(seen.size(), n) << "small ranges should be fully covered";
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBelowTest,
                         ::testing::Values(1, 2, 3, 7, 16, 100, 12345,
                                           1ull << 32, (1ull << 63) + 5));

TEST(Rng, BetweenInclusive) {
  Rng rng(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.between(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceEdges) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Rng, ChanceRate) {
  Rng rng(9);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, PoissonMean) {
  Rng rng(13);
  for (const double mean : {0.5, 3.0, 25.0, 200.0}) {
    double sum = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) {
      sum += static_cast<double>(rng.poisson(mean));
    }
    EXPECT_NEAR(sum / kN, mean, mean * 0.05 + 0.05) << "mean " << mean;
  }
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(14);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, WeightedDistribution) {
  Rng rng(15);
  const std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    ++counts[rng.weighted(weights)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(kN), 0.6, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(16);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Mix64, DistinctInputsDistinctOutputs) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    outputs.insert(mix64(i));
  }
  EXPECT_EQ(outputs.size(), 10000u);
}

}  // namespace
}  // namespace rootstress::util
