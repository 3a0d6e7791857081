#include "util/histogram.h"

#include <gtest/gtest.h>

namespace rootstress::util {
namespace {

TEST(Histogram, RejectsBadGeometry) {
  EXPECT_THROW(FixedBinHistogram(0.0, 4), std::invalid_argument);
  EXPECT_THROW(FixedBinHistogram(-1.0, 4), std::invalid_argument);
  EXPECT_THROW(FixedBinHistogram(16.0, 0), std::invalid_argument);
}

TEST(Histogram, BinsByWidth) {
  FixedBinHistogram h(16.0, 4);
  h.add(0.0);
  h.add(15.9);
  h.add(16.0);
  h.add(47.9);
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(1), 1u);
  EXPECT_EQ(h.bin(2), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, ClampsOverflowAndNegative) {
  FixedBinHistogram h(16.0, 4);
  h.add(1000.0);
  h.add(-5.0);
  EXPECT_EQ(h.bin(3), 1u);
  EXPECT_EQ(h.bin(0), 1u);
}

TEST(Histogram, WeightedCounts) {
  FixedBinHistogram h(16.0, 4);
  h.add(20.0, 100);
  EXPECT_EQ(h.bin(1), 100u);
  EXPECT_EQ(h.total(), 100u);
}

TEST(Histogram, ModeBin) {
  // Against an empty baseline of the same geometry, the bin that grew
  // the most is the most populated one.
  FixedBinHistogram h(16.0, 8), empty(16.0, 8);
  h.add(5.0, 3);
  h.add(100.0, 10);
  EXPECT_EQ(h.mode_bin_above(empty), 6u);  // 96-112
}

TEST(Histogram, ModeBinAboveBaseline) {
  // Baseline dominates bin 2; the *growth* is in bin 1 — the paper's
  // attack-size identification method must find the growth.
  FixedBinHistogram base(16.0, 8), day(16.0, 8);
  base.add(40.0, 1000);  // bin 2
  day.add(40.0, 1100);   // bin 2: grew by 100
  day.add(20.0, 500);    // bin 1: grew by 500
  EXPECT_GT(day.bin(2), day.bin(1));  // the raw mode is still bin 2
  EXPECT_EQ(day.mode_bin_above(base), 1u);
}

TEST(Histogram, MergeRequiresSameGeometry) {
  FixedBinHistogram a(16.0, 4), b(16.0, 4), c(8.0, 4), d(16.0, 8);
  b.add(5.0, 2);
  EXPECT_TRUE(a.merge(b));
  EXPECT_EQ(a.bin(0), 2u);
  EXPECT_FALSE(a.merge(c));
  EXPECT_FALSE(a.merge(d));
}

TEST(Histogram, Clear) {
  FixedBinHistogram h(16.0, 4);
  h.add(5.0, 10);
  h.clear();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.bin(0), 0u);
}

}  // namespace
}  // namespace rootstress::util
