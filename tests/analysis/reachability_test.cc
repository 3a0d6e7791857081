#include "analysis/reachability.h"

#include <gtest/gtest.h>

namespace rootstress::analysis {
namespace {

atlas::ProbeRecord rec(int vp, int letter, std::uint32_t t_s,
                       atlas::ProbeOutcome outcome, int site = -1) {
  atlas::ProbeRecord r;
  r.vp = static_cast<std::uint32_t>(vp);
  r.letter_index = static_cast<std::uint8_t>(letter);
  r.t_s = t_s;
  r.outcome = outcome;
  r.site_id = static_cast<std::int16_t>(site);
  return r;
}

TEST(Reachability, SeriesAndMin) {
  atlas::LetterBins bins(3, net::SimTime(0), net::SimTime::from_minutes(10),
                         3);
  // Bin 0: all three respond; bin 1: one; bin 2: two.
  for (int vp = 0; vp < 3; ++vp) {
    bins.add(rec(vp, 0, 10, atlas::ProbeOutcome::kSite, 1));
  }
  bins.add(rec(0, 0, 700, atlas::ProbeOutcome::kSite, 1));
  bins.add(rec(1, 0, 700, atlas::ProbeOutcome::kTimeout));
  bins.add(rec(0, 0, 1300, atlas::ProbeOutcome::kSite, 1));
  bins.add(rec(2, 0, 1300, atlas::ProbeOutcome::kSite, 2));

  const auto series = reachability_series(bins, 'B');
  EXPECT_EQ(series.successful_per_bin, (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(series.min_vps, 1);
  EXPECT_EQ(series.min_bin, 1u);
  EXPECT_DOUBLE_EQ(series.scale, 1.0);
}

TEST(Reachability, CadenceScalingForA) {
  atlas::LetterBins bins(3, net::SimTime(0), net::SimTime::from_minutes(10),
                         1);
  bins.add(rec(0, 0, 10, atlas::ProbeOutcome::kSite, 1));
  // A is probed every 30 min: only ~1/3 of VPs appear per 10-min bin, so
  // counts scale by 3 (the paper's correction for Fig 3).
  const auto series =
      reachability_series(bins, 'A', 1800.0, /*scale_for_cadence=*/true);
  EXPECT_DOUBLE_EQ(series.scale, 3.0);
  EXPECT_EQ(series.successful_per_bin[0], 3);
}

TEST(Reachability, NoScalingWhenCadenceFitsBin) {
  atlas::LetterBins bins(1, net::SimTime(0), net::SimTime::from_minutes(10),
                         1);
  const auto series =
      reachability_series(bins, 'K', 240.0, /*scale_for_cadence=*/true);
  EXPECT_DOUBLE_EQ(series.scale, 1.0);
}

TEST(Reachability, ObservedSiteCount) {
  atlas::RecordSet records;
  records.push_back(rec(0, 0, 1, atlas::ProbeOutcome::kSite, 5));
  records.push_back(rec(1, 0, 2, atlas::ProbeOutcome::kSite, 5));
  records.push_back(rec(2, 0, 3, atlas::ProbeOutcome::kSite, 9));
  records.push_back(rec(3, 0, 4, atlas::ProbeOutcome::kError, -1));
  records.push_back(rec(4, 1, 5, atlas::ProbeOutcome::kSite, 7));  // other letter
  EXPECT_EQ(observed_site_count(records, 0), 2);
  EXPECT_EQ(observed_site_count(records, 1), 1);
  EXPECT_EQ(observed_site_count(records, 2), 0);
}

}  // namespace
}  // namespace rootstress::analysis
