#include "util/time_series.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "util/rng.h"

namespace rootstress::util {
namespace {

TEST(BinnedSeries, RejectsBadGeometry) {
  EXPECT_THROW(BinnedSeries(0, 0, 10), std::invalid_argument);
  EXPECT_THROW(BinnedSeries(0, 100, 0), std::invalid_argument);
}

TEST(BinnedSeries, BinsObservations) {
  BinnedSeries s(1000, 100, 5);
  s.add(1000, 1.0);
  s.add(1099, 3.0);
  s.add(1100, 5.0);
  EXPECT_EQ(s.count(0), 2u);
  EXPECT_DOUBLE_EQ(s.sum(0), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(0), 2.0);
  EXPECT_EQ(s.count(1), 1u);
  EXPECT_DOUBLE_EQ(s.mean(1), 5.0);
}

TEST(BinnedSeries, IgnoresOutOfRange) {
  BinnedSeries s(1000, 100, 2);
  s.add(999, 1.0);
  s.add(1200, 1.0);
  EXPECT_EQ(s.count(0), 0u);
  EXPECT_EQ(s.count(1), 0u);
}

TEST(BinnedSeries, FillBinEqualsSequentialAdds) {
  // Values of mixed sign and magnitude, summed in order from 0.0 the way
  // the engine sums a bin's steps before writing the bin once.
  util::Rng rng(77);
  for (const std::size_t n : {1u, 2u, 3u, 9u, 10u, 240u}) {
    BinnedSeries added(0, 600000, 4);
    BinnedSeries filled(0, 600000, 4);
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double value =
          (k % 3 == 0 ? -1.0 : 1.0) * rng.uniform() *
          (k % 2 == 0 ? 1e-3 : 1e6);
      added.add_to_bin(2, value);
      sum += value;
    }
    filled.fill_bin(2, n, sum);
    filled.fill_bin(BinnedSeries::npos, n, sum);  // ignored like add_to_bin
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(filled.count(i), added.count(i)) << n << " values, bin " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(filled.sum(i)),
                std::bit_cast<std::uint64_t>(added.sum(i)))
          << n << " values, bin " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(filled.mean(i)),
                std::bit_cast<std::uint64_t>(added.mean(i)))
          << n << " values, bin " << i;
    }
  }
}

TEST(BinnedSeries, BinOf) {
  BinnedSeries s(0, 600000, 288);
  EXPECT_EQ(s.bin_of(0), 0u);
  EXPECT_EQ(s.bin_of(599999), 0u);
  EXPECT_EQ(s.bin_of(600000), 1u);
  EXPECT_EQ(s.bin_of(-1), BinnedSeries::npos);
  EXPECT_EQ(s.bin_of(600000LL * 288), BinnedSeries::npos);
}

TEST(BinnedSeries, BinStart) {
  BinnedSeries s(500, 100, 3);
  EXPECT_EQ(s.bin_start(0), 500);
  EXPECT_EQ(s.bin_start(2), 700);
}

TEST(BinnedSeries, CountEvent) {
  BinnedSeries s(0, 100, 2);
  s.count_event(50);
  s.count_event(150);
  s.count_event(199);
  EXPECT_EQ(s.count(0), 1u);
  EXPECT_EQ(s.count(1), 2u);
}

}  // namespace
}  // namespace rootstress::util
