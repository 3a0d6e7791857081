#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

namespace rootstress::util {
namespace {

TEST(Stats, MeanBasicAndEmpty) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{4.0}), 4.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{}), 0.0);
}

TEST(Stats, MedianDoesNotReorderInput) {
  std::vector<double> v{3.0, 1.0, 2.0};
  median(v);
  EXPECT_EQ(v, (std::vector<double>{3.0, 1.0, 2.0}));
}

class PercentileTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(PercentileTest, LinearInterpolation) {
  // 0..10 inclusive: percentile p maps to p/10.
  std::vector<double> v;
  for (int i = 0; i <= 10; ++i) v.push_back(i);
  const auto [p, expected] = GetParam();
  EXPECT_NEAR(percentile(v, p), expected, 1e-9);
}

TEST_P(PercentileTest, MatchesSortedReferenceOnShuffledDuplicates) {
  // Seeded unsorted input with many repeats; the reference sorts a copy
  // and interpolates between neighbours, which the selection-based
  // percentile must match bit for bit.
  std::mt19937_64 gen(0x5eed);
  for (const std::size_t n : {1u, 2u, 7u, 64u, 1001u}) {
    std::vector<double> v(n);
    for (double& x : v) x = static_cast<double>(gen() % 23) * 0.25 - 1.0;
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    const double p = std::clamp(GetParam().first, 0.0, 100.0);
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = rank - static_cast<double>(lo);
    const double expected = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
    const std::vector<double> before = v;
    EXPECT_EQ(percentile(v, GetParam().first), expected) << "n " << n;
    EXPECT_EQ(v, before);
  }
}

TEST_P(PercentileTest, InPlaceOn16BitValuesMatchesDoubles) {
  // Selecting on the 16-bit values themselves must give percentile()'s
  // result over the same values as doubles, bit for bit.
  std::mt19937_64 gen(0xbeef);
  for (const std::size_t n : {0u, 1u, 2u, 7u, 64u, 1001u}) {
    std::vector<std::uint16_t> narrow(n);
    for (auto& x : narrow) x = static_cast<std::uint16_t>(gen() % 70000);
    const std::vector<double> wide(narrow.begin(), narrow.end());
    EXPECT_EQ(percentile_in_place(narrow, GetParam().first),
              percentile(wide, GetParam().first))
        << "n " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PercentileTest,
    ::testing::Values(std::pair{0.0, 0.0}, std::pair{25.0, 2.5},
                      std::pair{50.0, 5.0}, std::pair{90.0, 9.0},
                      std::pair{100.0, 10.0}, std::pair{150.0, 10.0},
                      std::pair{-5.0, 0.0}));

TEST(Stats, StddevKnown) {
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{5.0}), 0.0);
  // Sample (N-1) estimator: sum of squared deviations is 32 over 8
  // values, so sqrt(32/7) — not the population answer sqrt(32/8) = 2.
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
  // Regression guard: the pre-fix population formula returned exactly
  // 2.0 here, which underestimates spread for small replicate samples.
  EXPECT_GT(stddev(v), 2.0);
}

TEST(Stats, StddevTwoSamples) {
  // Smallest sample the estimator is defined for: |x0 - x1| / sqrt(2)
  // scaled by the Bessel correction gives exactly the half-range * sqrt(2).
  EXPECT_NEAR(stddev(std::vector<double>{1.0, 3.0}), std::sqrt(2.0), 1e-12);
}

TEST(Stats, MinMax) {
  const std::vector<double> v{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_of(v), -1.0);
  EXPECT_DOUBLE_EQ(max_of(v), 7.0);
  EXPECT_DOUBLE_EQ(min_of(std::vector<double>{}), 0.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> yneg{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, yneg), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerate) {
  const std::vector<double> x{1, 2, 3};
  const std::vector<double> flat{5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(x, flat), 0.0);
  EXPECT_DOUBLE_EQ(pearson(x, std::vector<double>{1, 2}), 0.0);
}

TEST(Stats, LinearFitExact) {
  const std::vector<double> x{0, 1, 2, 3};
  const std::vector<double> y{1, 3, 5, 7};  // y = 2x + 1
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, LinearFitNoisy) {
  const std::vector<double> x{0, 1, 2, 3, 4, 5};
  const std::vector<double> y{0.1, 0.9, 2.2, 2.8, 4.1, 5.0};
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 1.0, 0.05);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(Stats, LinearFitDegenerate) {
  const LinearFit fit =
      linear_fit(std::vector<double>{1.0}, std::vector<double>{2.0});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.r_squared, 0.0);
}

TEST(Stats, GroupMediansMatchPerGroupMedians) {
  std::mt19937_64 gen(0x9e0);
  const std::size_t groups = 9;
  std::vector<std::size_t> keys;
  std::vector<std::uint16_t> values;
  std::vector<std::vector<double>> by_group(groups);
  for (int i = 0; i < 500; ++i) {
    const std::size_t key = gen() % (groups - 1);  // the last group stays empty
    const auto value = static_cast<std::uint16_t>(gen() % 1000);
    keys.push_back(key);
    values.push_back(value);
    by_group[key].push_back(value);
  }
  const auto medians = group_medians(keys, values, groups);
  ASSERT_EQ(medians.size(), groups);
  for (std::size_t g = 0; g < groups; ++g) {
    EXPECT_EQ(medians[g], median(by_group[g])) << "group " << g;
  }
  EXPECT_EQ(medians.back(), 0.0);
  EXPECT_TRUE(group_medians({}, {}, 0).empty());
}

}  // namespace
}  // namespace rootstress::util
