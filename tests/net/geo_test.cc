#include "net/geo.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace rootstress::net {
namespace {

TEST(Geo, DistanceKnownPairs) {
  // Amsterdam <-> London is roughly 360 km.
  const auto ams = find_location("AMS");
  const auto lhr = find_location("LHR");
  ASSERT_TRUE(ams && lhr);
  const double d = distance_km(ams->point, lhr->point);
  EXPECT_GT(d, 300.0);
  EXPECT_LT(d, 420.0);
}

TEST(Geo, DistanceZeroAndAntipodal) {
  const GeoPoint p{10.0, 20.0};
  EXPECT_NEAR(distance_km(p, p), 0.0, 1e-6);
  const GeoPoint a{0.0, 0.0}, b{0.0, 180.0};
  EXPECT_NEAR(distance_km(a, b), 20015.0, 50.0);  // half circumference
}

TEST(Geo, RttGrowsWithDistance) {
  const auto ams = find_location("AMS");
  const auto fra = find_location("FRA");
  const auto nrt = find_location("NRT");
  ASSERT_TRUE(ams && fra && nrt);
  const double near_rtt = base_rtt_ms(ams->point, fra->point);
  const double far_rtt = base_rtt_ms(ams->point, nrt->point);
  EXPECT_GT(far_rtt, near_rtt);
  // Sanity: intra-Europe ~5-15 ms, Europe-Japan ~100-180 ms.
  EXPECT_GT(near_rtt, 3.0);
  EXPECT_LT(near_rtt, 20.0);
  EXPECT_GT(far_rtt, 90.0);
  EXPECT_LT(far_rtt, 200.0);
}

TEST(Geo, SelfRttIsEdgeOnly) {
  const GeoPoint p{52.0, 4.0};
  EXPECT_NEAR(base_rtt_ms(p, p), 3.0, 1e-9);
}

// Every site code the paper's figures name must resolve.
class PaperSiteCodes : public ::testing::TestWithParam<const char*> {};

TEST_P(PaperSiteCodes, Resolves) {
  const auto loc = find_location(GetParam());
  ASSERT_TRUE(loc.has_value()) << GetParam();
  EXPECT_FALSE(loc->region.empty());
  EXPECT_GE(loc->point.lat, -90.0);
  EXPECT_LE(loc->point.lat, 90.0);
  EXPECT_GE(loc->point.lon, -180.0);
  EXPECT_LE(loc->point.lon, 180.0);
}

INSTANTIATE_TEST_SUITE_P(
    ERoot, PaperSiteCodes,
    ::testing::Values("AMS", "FRA", "LHR", "ARC", "CDG", "VIE", "QPG", "ORD",
                      "KBP", "ZRH", "IAD", "PAO", "WAW", "ATL", "BER", "SYD",
                      "SEA", "NLV", "MIA", "NRT", "TRN", "AKL", "MAN", "BUR",
                      "LGA", "PER", "SNA", "LBA", "SIN", "DXB", "KGL", "LAD"));

INSTANTIATE_TEST_SUITE_P(
    KRoot, PaperSiteCodes,
    ::testing::Values("LED", "MIL", "BNE", "PRG", "GVA", "ATH", "MKC", "RIX",
                      "THR", "BUD", "KAE", "BEG", "HEL", "PLX", "OVB", "POZ",
                      "ABO", "AVN", "BCN", "REY", "DOH", "DEL", "RNO"));

INSTANTIATE_TEST_SUITE_P(Others, PaperSiteCodes,
                         ::testing::Values("LAX", "BWI", "SAN", "GRU", "JNB",
                                           "HKG", "YYZ", "SCL", "MEX", "MAD"));

TEST(Geo, UnknownCode) {
  EXPECT_FALSE(find_location("ZZZ").has_value());
  EXPECT_FALSE(find_location("").has_value());
}

TEST(Geo, RegistryHasGlobalCoverage) {
  const auto all = all_locations();
  for (const char* region : {"EU", "NA", "AS", "OC", "SA", "ME", "AF"}) {
    const auto in_region =
        std::count_if(all.begin(), all.end(), [&](const Location& loc) {
          return loc.region == region;
        });
    EXPECT_GT(in_region, 2) << region;
  }
  EXPECT_GT(all_locations().size(), 80u);
}

TEST(Geo, CodesAreUnique) {
  const auto all = all_locations();
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_NE(all[i].code, all[j].code);
    }
  }
}

}  // namespace
}  // namespace rootstress::net
