// The tentpole guarantee of the threading work: a run's results are a
// pure function of the scenario — bit-identical whether the engine steps
// serially or fans work across a pool. Everything an analysis can read
// (records, every series, RSSAC accounting, route changes, cleaning
// stats) is compared between a threads=1 and a threads=4 run of the
// Nov 30 event scenario at reduced scale.
#include <gtest/gtest.h>

#include <cstring>

#include "sim/engine.h"
#include "sim/scenario_builder.h"

namespace rootstress {
namespace {

sim::ScenarioConfig reduced_event_scenario(int threads) {
  sim::ScenarioConfig config =
      sim::ScenarioBuilder::november_2015().vp_count(160).build();
  config.probe_letters = {'B', 'D', 'K'};
  config.end = net::SimTime::from_hours(8);  // covers the first event
  config.probe_window = net::SimInterval{net::SimTime(0), config.end};
  config.threads = threads;
  return config;
}

void expect_series_identical(const util::BinnedSeries& a,
                             const util::BinnedSeries& b, const char* what) {
  ASSERT_EQ(a.bin_count(), b.bin_count()) << what;
  ASSERT_EQ(a.start_ms(), b.start_ms()) << what;
  ASSERT_EQ(a.bin_ms(), b.bin_ms()) << what;
  for (std::size_t i = 0; i < a.bin_count(); ++i) {
    ASSERT_EQ(a.count(i), b.count(i)) << what << " bin " << i;
    // Exact double equality on purpose: the merge order of every
    // floating-point accumulation is thread-count-invariant.
    ASSERT_EQ(a.sum(i), b.sum(i)) << what << " bin " << i;
  }
}

void expect_all_series_identical(
    const std::vector<util::BinnedSeries>& a,
    const std::vector<util::BinnedSeries>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_series_identical(a[i], b[i], what);
  }
}

TEST(ParallelDeterminism, FourThreadsBitIdenticalToSerial) {
  sim::SimulationEngine serial_engine(reduced_event_scenario(1));
  const sim::SimulationResult serial = serial_engine.run();
  ASSERT_EQ(serial_engine.thread_count(), 1);

  sim::SimulationEngine pooled_engine(reduced_event_scenario(4));
  const sim::SimulationResult pooled = pooled_engine.run();
  ASSERT_EQ(pooled_engine.thread_count(), 4);

  // Probe records: same count, same bytes, same order.
  ASSERT_EQ(serial.records.size(), pooled.records.size());
  ASSERT_GT(serial.records.size(), 0u);
  static_assert(sizeof(atlas::ProbeRecord) == 16);
  EXPECT_EQ(std::memcmp(serial.records.data(), pooled.records.data(),
                        serial.records.size() * sizeof(atlas::ProbeRecord)),
            0);

  // Cleaning statistics.
  EXPECT_EQ(serial.cleaning.total_vps, pooled.cleaning.total_vps);
  EXPECT_EQ(serial.cleaning.dropped_old_firmware,
            pooled.cleaning.dropped_old_firmware);
  EXPECT_EQ(serial.cleaning.dropped_hijacked, pooled.cleaning.dropped_hijacked);
  EXPECT_EQ(serial.cleaning.kept_vps, pooled.cleaning.kept_vps);
  EXPECT_EQ(serial.cleaning.total_records, pooled.cleaning.total_records);
  EXPECT_EQ(serial.cleaning.kept_records, pooled.cleaning.kept_records);

  // Every fluid series, per service and per site.
  expect_all_series_identical(serial.service_offered_qps,
                              pooled.service_offered_qps, "service offered");
  expect_all_series_identical(serial.service_served_qps,
                              pooled.service_served_qps, "service served");
  expect_all_series_identical(serial.service_served_legit_qps,
                              pooled.service_served_legit_qps,
                              "service served legit");
  expect_all_series_identical(serial.service_failed_legit_qps,
                              pooled.service_failed_legit_qps,
                              "service failed legit");
  expect_all_series_identical(serial.site_served_qps, pooled.site_served_qps,
                              "site served");
  expect_all_series_identical(serial.site_offered_attack_qps,
                              pooled.site_offered_attack_qps,
                              "site offered attack");
  expect_all_series_identical(serial.site_loss_fraction,
                              pooled.site_loss_fraction, "site loss");
  expect_all_series_identical(serial.collector_series,
                              pooled.collector_series, "collector");

  // Route-change log: same churn, same order.
  ASSERT_EQ(serial.route_changes.size(), pooled.route_changes.size());
  for (std::size_t i = 0; i < serial.route_changes.size(); ++i) {
    const auto& x = serial.route_changes[i];
    const auto& y = pooled.route_changes[i];
    ASSERT_EQ(x.time.ms, y.time.ms) << i;
    ASSERT_EQ(x.prefix, y.prefix) << i;
    ASSERT_EQ(x.as_index, y.as_index) << i;
    ASSERT_EQ(x.old_site, y.old_site) << i;
    ASSERT_EQ(x.new_site, y.new_site) << i;
  }

  // RSSAC accounting for every letter over the simulated days.
  ASSERT_EQ(serial.rssac.letter_count(), pooled.rssac.letter_count());
  const int first_day = rssac::DailyAccumulator::day_of(serial.start);
  const int last_day = rssac::DailyAccumulator::day_of(serial.end);
  for (int letter = 0; letter < serial.rssac.letter_count(); ++letter) {
    for (int day = first_day; day <= last_day; ++day) {
      ASSERT_EQ(serial.rssac.has(letter, day), pooled.rssac.has(letter, day));
      if (!serial.rssac.has(letter, day)) continue;
      const auto& m1 = serial.rssac.metrics(letter, day);
      const auto& m2 = pooled.rssac.metrics(letter, day);
      ASSERT_EQ(m1.queries, m2.queries) << letter << "/" << day;
      ASSERT_EQ(m1.responses, m2.responses) << letter << "/" << day;
      ASSERT_EQ(m1.random_source_queries, m2.random_source_queries);
      ASSERT_EQ(m1.resolver_queries, m2.resolver_queries);
      ASSERT_EQ(m1.heavy_hitter_sources, m2.heavy_hitter_sources);
      ASSERT_EQ(m1.query_sizes.total(), m2.query_sizes.total());
      ASSERT_EQ(m1.response_sizes.total(), m2.response_sizes.total());
      for (std::size_t b = 0; b < m1.query_sizes.bin_count(); ++b) {
        ASSERT_EQ(m1.query_sizes.bin(b), m2.query_sizes.bin(b));
      }
      for (std::size_t b = 0; b < m1.response_sizes.bin_count(); ++b) {
        ASSERT_EQ(m1.response_sizes.bin(b), m2.response_sizes.bin(b));
      }
    }
  }
  EXPECT_EQ(serial.resolver_pool, pooled.resolver_pool);
}

// The auto knob (threads <= 0) resolves through ROOTSTRESS_THREADS.
TEST(ParallelDeterminism, ThreadsResolveFromEnvironment) {
  ::setenv("ROOTSTRESS_THREADS", "2", 1);
  sim::ScenarioConfig config = reduced_event_scenario(0);
  config.end = net::SimTime::from_minutes(10);
  config.probe_window = net::SimInterval{net::SimTime(0), config.end};
  sim::SimulationEngine engine(config);
  EXPECT_EQ(engine.thread_count(), 2);
  ::unsetenv("ROOTSTRESS_THREADS");
}

}  // namespace
}  // namespace rootstress
