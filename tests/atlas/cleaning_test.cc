#include "atlas/cleaning.h"

#include <gtest/gtest.h>

namespace rootstress::atlas {
namespace {

VantagePoint vp(int id, int firmware = 4700, bool hijacked = false) {
  VantagePoint v;
  v.id = id;
  v.firmware = firmware;
  v.hijacked = hijacked;
  return v;
}

ProbeRecord record(int vp_id, ProbeOutcome outcome, int site, double rtt) {
  ProbeRecord r;
  r.vp = static_cast<std::uint32_t>(vp_id);
  r.outcome = outcome;
  r.site_id = static_cast<std::int16_t>(site);
  r.rtt_ms = static_cast<std::uint16_t>(rtt);
  return r;
}

TEST(Cleaning, DropsOldFirmware) {
  const std::vector<VantagePoint> vps{vp(0), vp(1, 4500), vp(2, 4569),
                                      vp(3, 4570)};
  CleaningStats stats;
  const auto keep = select_vps(vps, {}, &stats);
  EXPECT_TRUE(keep[0]);
  EXPECT_FALSE(keep[1]);
  EXPECT_FALSE(keep[2]);
  EXPECT_TRUE(keep[3]);  // exactly 4570 is acceptable
  EXPECT_EQ(stats.dropped_old_firmware, 2);
  EXPECT_EQ(stats.kept_vps, 2);
}

TEST(Cleaning, HijackNeedsBothSignals) {
  const std::vector<VantagePoint> vps{vp(0), vp(1), vp(2), vp(3)};
  RecordSet records;
  // VP 0: bad pattern AND fast -> hijacked.
  records.push_back(record(0, ProbeOutcome::kError, -1, 3));
  // VP 1: bad pattern but slow (a genuine error, e.g. SERVFAIL) -> keep.
  records.push_back(record(1, ProbeOutcome::kError, -1, 80));
  // VP 2: fast but valid site reply -> keep.
  records.push_back(record(2, ProbeOutcome::kSite, 4, 3));
  // VP 3: timeouts only -> keep.
  records.push_back(record(3, ProbeOutcome::kTimeout, -1, 0));
  CleaningStats stats;
  const auto keep = select_vps(vps, records, &stats);
  EXPECT_FALSE(keep[0]);
  EXPECT_TRUE(keep[1]);
  EXPECT_TRUE(keep[2]);
  EXPECT_TRUE(keep[3]);
  EXPECT_EQ(stats.dropped_hijacked, 1);
}

TEST(Cleaning, FilterRecordsDropsWholeVp) {
  const std::vector<VantagePoint> vps{vp(0), vp(1)};
  RecordSet records;
  records.push_back(record(0, ProbeOutcome::kError, -1, 2));
  records.push_back(record(0, ProbeOutcome::kSite, 1, 30));  // same VP
  records.push_back(record(1, ProbeOutcome::kSite, 1, 30));
  CleaningStats stats;
  const auto keep = select_vps(vps, records, &stats);
  filter_records(records, keep, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].vp, 1u);
  EXPECT_EQ(stats.total_records, 3u);
  EXPECT_EQ(stats.kept_records, 1u);
}

TEST(Cleaning, PreservesOrder) {
  const std::vector<VantagePoint> vps{vp(0), vp(1)};
  RecordSet records;
  for (int i = 0; i < 10; ++i) {
    auto r = record(i % 2, ProbeOutcome::kSite, i, 30);
    r.t_s = static_cast<std::uint32_t>(i);
    records.push_back(r);
  }
  const auto keep = select_vps(vps, records, nullptr);
  filter_records(records, keep, nullptr);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].t_s, records[i].t_s);
  }
}

}  // namespace
}  // namespace rootstress::atlas
