#include "rssac/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

namespace rootstress::rssac {
namespace {

TEST(Rssac, DayOf) {
  EXPECT_EQ(DailyAccumulator::day_of(net::SimTime(0)), 0);
  EXPECT_EQ(DailyAccumulator::day_of(net::SimTime::from_hours(23.9)), 0);
  EXPECT_EQ(DailyAccumulator::day_of(net::SimTime::from_hours(24)), 1);
  EXPECT_EQ(DailyAccumulator::day_of(net::SimTime::from_hours(-1)), -1);
  EXPECT_EQ(DailyAccumulator::day_of(net::SimTime::from_hours(-25)), -2);
}

TEST(Rssac, AccumulatesSteps) {
  DailyAccumulator acc(13);
  StepTraffic traffic;
  traffic.queries_received = 1000.0;
  traffic.responses_sent = 900.0;
  traffic.query_payload_bytes = 32.0;
  traffic.response_payload_bytes = 490.0;
  acc.add_step(0, net::SimTime::from_hours(1), traffic);
  acc.add_step(0, net::SimTime::from_hours(2), traffic);
  const auto& m = acc.metrics(0, 0);
  EXPECT_DOUBLE_EQ(m.queries, 2000.0);
  EXPECT_DOUBLE_EQ(m.responses, 1800.0);
  // Every query lands in the 32-47B bin, every response in 480-495B.
  EXPECT_GT(m.query_sizes.total(), 0u);
  EXPECT_EQ(m.query_sizes.bin(2), m.query_sizes.total());
  EXPECT_GT(m.response_sizes.total(), 0u);
  EXPECT_EQ(m.response_sizes.bin(30), m.response_sizes.total());
  EXPECT_TRUE(acc.has(0, 0));
  EXPECT_FALSE(acc.has(0, 1));
  EXPECT_FALSE(acc.has(1, 0));
}

TEST(Rssac, MeteringFactorScalesCounts) {
  DailyAccumulator acc(13);
  StepTraffic traffic;
  traffic.queries_received = 1000.0;
  traffic.responses_sent = 1000.0;
  traffic.metering_factor = 0.25;
  acc.add_step(3, net::SimTime(0), traffic);
  EXPECT_DOUBLE_EQ(acc.metrics(3, 0).queries, 250.0);
}

TEST(Rssac, UniqueSourcesCouponCollector) {
  LetterDayMetrics m;
  // Tiny random-source load: uniques ~= queries (collisions negligible).
  m.random_source_queries = 1e6;
  EXPECT_NEAR(m.unique_sources(0.0), 1e6, 1e6 * 0.001);
  // Saturating load: uniques approach the ~2e9 routable (spoofable)
  // IPv4 space.
  m.random_source_queries = 4.0 * 4294967296.0;
  EXPECT_GT(m.unique_sources(0.0), 2.0e9 * 0.95);
  EXPECT_LT(m.unique_sources(0.0), 2.0e9 * 1.01);
}

TEST(Rssac, UniqueCounterCapSaturates) {
  // H/K/L-style fixed-capacity distinct counters cap the published
  // number (the paper's suspiciously similar 36-40M figures).
  LetterDayMetrics m;
  m.random_source_queries = 1e9;
  m.unique_counter_cap = 40e6;
  EXPECT_DOUBLE_EQ(m.unique_sources(0.0), 40e6);
}

TEST(Rssac, UniqueSourcesResolverPoolSaturates) {
  LetterDayMetrics m;
  m.resolver_queries = 100e6;  // way more queries than resolvers
  EXPECT_NEAR(m.unique_sources(4e6), 4e6, 4e6 * 0.01);
  m.resolver_queries = 1000.0;  // tiny load: ~1 query per resolver seen
  EXPECT_NEAR(m.unique_sources(4e6), 1000.0, 5.0);
}

TEST(Rssac, HeavyHittersAdd) {
  LetterDayMetrics m;
  m.heavy_hitter_sources = 200;
  EXPECT_DOUBLE_EQ(m.unique_sources(0.0), 200.0);
}

TEST(Rssac, HeavyHitterCountIsMaxNotSum) {
  DailyAccumulator acc(13);
  StepTraffic traffic;
  traffic.queries_received = 1.0;
  traffic.heavy_hitter_sources = 200;
  acc.add_step(0, net::SimTime(0), traffic);
  acc.add_step(0, net::SimTime(60000), traffic);
  EXPECT_EQ(acc.metrics(0, 0).heavy_hitter_sources, 200);
}

TEST(Rssac, SeparateDaysSeparateMetrics) {
  DailyAccumulator acc(13);
  StepTraffic traffic;
  traffic.queries_received = 100.0;
  acc.add_step(0, net::SimTime::from_hours(-1), traffic);  // day -1
  acc.add_step(0, net::SimTime::from_hours(1), traffic);   // day 0
  EXPECT_DOUBLE_EQ(acc.metrics(0, -1).queries, 100.0);
  EXPECT_DOUBLE_EQ(acc.metrics(0, 0).queries, 100.0);
  EXPECT_DOUBLE_EQ(acc.metrics(0, 1).queries, 0.0);  // empty default
}

}  // namespace
}  // namespace rootstress::rssac
