#include "net/clock.h"

#include <gtest/gtest.h>

#include "net/packet.h"

namespace rootstress::net {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(SimTime::from_seconds(1.5).ms, 1500);
  EXPECT_EQ(SimTime::from_minutes(2).ms, 120000);
  EXPECT_EQ(SimTime::from_hours(1).ms, 3600000);
  EXPECT_DOUBLE_EQ(SimTime(90000).minutes(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::from_hours(48).hours(), 48.0);
}

TEST(SimTime, Arithmetic) {
  const SimTime a(1000), b(250);
  EXPECT_EQ((a + b).ms, 1250);
  EXPECT_EQ((a - b).ms, 750);
  EXPECT_LT(b, a);
}

TEST(SimTime, ToString) {
  EXPECT_EQ(SimTime(0).to_string(), "0d00:00:00");
  EXPECT_EQ(SimTime::from_hours(25.5).to_string(), "1d01:30:00");
  EXPECT_EQ(SimTime(-3600000).to_string(), "-0d01:00:00");
}

TEST(SimInterval, ContainsHalfOpen) {
  const SimInterval iv{SimTime(100), SimTime(200)};
  EXPECT_FALSE(iv.contains(SimTime(99)));
  EXPECT_TRUE(iv.contains(SimTime(100)));
  EXPECT_TRUE(iv.contains(SimTime(199)));
  EXPECT_FALSE(iv.contains(SimTime(200)));
  EXPECT_EQ(iv.duration().ms, 100);
}

TEST(Packet, WireBytes) {
  EXPECT_EQ(wire_bytes(32), 60u);
  EXPECT_EQ(wire_bytes(0), kIpUdpHeaderBytes);
}

}  // namespace
}  // namespace rootstress::net
