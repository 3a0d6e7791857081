#include "attack/schedule.h"

#include <gtest/gtest.h>

#include "attack/events2015.h"

namespace rootstress::attack {
namespace {

TEST(Schedule, ActiveLookup) {
  AttackSchedule schedule;
  AttackEvent e;
  e.when = {net::SimTime(100), net::SimTime(200)};
  e.qname = "x.com";
  schedule.add(e);
  EXPECT_EQ(schedule.active(net::SimTime(99)), nullptr);
  ASSERT_NE(schedule.active(net::SimTime(100)), nullptr);
  EXPECT_EQ(schedule.active(net::SimTime(150))->qname, "x.com");
  EXPECT_EQ(schedule.active(net::SimTime(200)), nullptr);
}

TEST(Events2015, TimesMatchThePaper) {
  // Nov 30 06:50-09:30 (160 min) and Dec 1 05:10-06:10 (60 min).
  EXPECT_EQ(kEvent1.begin.to_string(), "0d06:50:00");
  EXPECT_EQ(kEvent1.end.to_string(), "0d09:30:00");
  EXPECT_EQ(kEvent1.duration().minutes(), 160.0);
  EXPECT_EQ(kEvent2.begin.to_string(), "1d05:10:00");
  EXPECT_EQ(kEvent2.duration().minutes(), 60.0);
}

TEST(Events2015, ScheduleCarriesPaperParameters) {
  const auto schedule = events_of_november_2015();
  ASSERT_EQ(schedule.events().size(), 2u);
  const auto& e1 = schedule.events()[0];
  const auto& e2 = schedule.events()[1];
  EXPECT_EQ(e1.qname, "www.336901.com");
  EXPECT_EQ(e2.qname, "www.916yy.com");
  EXPECT_DOUBLE_EQ(e1.per_letter_qps, 5e6);
  EXPECT_DOUBLE_EQ(e1.duplicate_fraction, 0.60);
  EXPECT_GT(e1.spillover_fraction, 0.0);
  EXPECT_LT(e1.spillover_fraction, 0.05);
}

TEST(Events2015, QueryPayloadsLandInPaperSizeBins) {
  // §3.1: Nov 30 queries fell in the 32-47B RSSAC bin, Dec 1 in 16-31B.
  const auto schedule = events_of_november_2015();
  const double p1 = schedule.events()[0].query_payload_bytes;
  const double p2 = schedule.events()[1].query_payload_bytes;
  EXPECT_GE(p1, 32.0);
  EXPECT_LT(p1, 48.0);
  EXPECT_GE(p2, 16.0);
  EXPECT_LT(p2, 32.0);
  // And responses near the 480-495B range.
  EXPECT_GE(schedule.events()[0].response_payload_bytes, 450.0);
  EXPECT_LE(schedule.events()[0].response_payload_bytes, 520.0);
}

TEST(Events2015, PayloadHelperRejectsJunk) {
  EXPECT_EQ(attack_query_payload_bytes("not..a..name"), 0u);
}

TEST(Events2015, CustomRate) {
  const auto schedule = events_of_november_2015(1e6);
  EXPECT_DOUBLE_EQ(schedule.events()[0].per_letter_qps, 1e6);
}

}  // namespace
}  // namespace rootstress::attack
