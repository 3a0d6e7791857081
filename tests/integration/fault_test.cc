// Fault-layer integration: a run under a full chaos cocktail (pulse wave,
// site failure, session reset, VP dropout, telemetry gap, flash crowd) is
// bit-identical at any thread count, and each injector visibly moves the
// outputs it is supposed to move.
#include <gtest/gtest.h>

#include <cstring>

#include "attack/events2015.h"
#include "fault/schedule.h"
#include "sim/engine.h"
#include "sim/scenario_builder.h"

namespace rootstress {
namespace {

using net::SimInterval;
using net::SimTime;

sim::ScenarioConfig fast_scenario(int threads = 1) {
  sim::ScenarioConfig config =
      sim::ScenarioBuilder::november_2015().vp_count(150).build();
  config.deployment.topology.stub_count = 250;
  config.end = SimTime::from_hours(10);
  config.probe_window.end = config.end;
  config.probe_letters = {'B', 'K'};
  config.threads = threads;
  return config;
}

fault::FaultSchedule chaos_cocktail() {
  fault::VpDropout dropout;
  dropout.window = {SimTime::from_hours(7), SimTime::from_hours(9)};
  dropout.fraction = 0.3;
  dropout.salt = 17;
  fault::BgpReset reset;
  reset.letter = 'K';
  reset.site_ordinal = 1;
  reset.at = SimTime::from_hours(7.5);
  fault::FaultScheduleBuilder builder;
  builder.name("cocktail")
      .pulse_wave(fault::FaultSchedule::pulse_wave_2015().pulses[0])
      .site_fault('K', 0, {SimTime::from_hours(7), SimTime::from_hours(8)})
      .bgp_reset(reset)
      .vp_dropout(dropout)
      .telemetry_gap({SimTime::from_hours(7.2), SimTime::from_hours(7.6)})
      .legit_surge({SimTime::from_hours(7), SimTime::from_hours(8)}, 2.0);
  return builder.build();
}

double mean_over(const util::BinnedSeries& series, SimInterval window) {
  double sum = 0.0;
  std::size_t bins = 0;
  for (std::size_t i = 0; i < series.bin_count(); ++i) {
    const SimTime begin{series.bin_start(i)};
    if (!window.contains(begin)) continue;
    sum += series.mean(i);
    ++bins;
  }
  return bins > 0 ? sum / static_cast<double>(bins) : 0.0;
}

TEST(FaultIntegration, ChaosCocktailIsBitIdenticalAcrossThreadCounts) {
  auto serial_config = fast_scenario(1);
  serial_config.fault_schedule = chaos_cocktail();
  auto pooled_config = fast_scenario(4);
  pooled_config.fault_schedule = chaos_cocktail();

  sim::SimulationEngine serial_engine(std::move(serial_config));
  const sim::SimulationResult serial = serial_engine.run();
  sim::SimulationEngine pooled_engine(std::move(pooled_config));
  const sim::SimulationResult pooled = pooled_engine.run();
  ASSERT_EQ(pooled_engine.thread_count(), 4);

  ASSERT_EQ(serial.records.size(), pooled.records.size());
  ASSERT_GT(serial.records.size(), 0u);
  EXPECT_EQ(std::memcmp(serial.records.data(), pooled.records.data(),
                        serial.records.size() * sizeof(atlas::ProbeRecord)),
            0);

  ASSERT_EQ(serial.route_changes.size(), pooled.route_changes.size());
  for (std::size_t i = 0; i < serial.route_changes.size(); ++i) {
    ASSERT_EQ(serial.route_changes[i].time.ms, pooled.route_changes[i].time.ms)
        << i;
    ASSERT_EQ(serial.route_changes[i].new_site, pooled.route_changes[i].new_site)
        << i;
  }

  const auto expect_series_equal = [](const std::vector<util::BinnedSeries>& a,
                                      const std::vector<util::BinnedSeries>& b,
                                      const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t s = 0; s < a.size(); ++s) {
      ASSERT_EQ(a[s].bin_count(), b[s].bin_count()) << what;
      for (std::size_t i = 0; i < a[s].bin_count(); ++i) {
        ASSERT_EQ(a[s].sum(i), b[s].sum(i)) << what << " " << s << "/" << i;
        ASSERT_EQ(a[s].count(i), b[s].count(i)) << what << " " << s << "/" << i;
      }
    }
  };
  expect_series_equal(serial.service_served_legit_qps,
                      pooled.service_served_legit_qps, "served legit");
  expect_series_equal(serial.service_failed_legit_qps,
                      pooled.service_failed_legit_qps, "failed legit");
  expect_series_equal(serial.site_served_qps, pooled.site_served_qps,
                      "site served");
  expect_series_equal(serial.site_loss_fraction, pooled.site_loss_fraction,
                      "site loss");
  EXPECT_EQ(serial.playbook.activations, pooled.playbook.activations);
}

TEST(FaultIntegration, SiteFaultSilencesTheSiteForItsWindow) {
  const SimInterval outage{SimTime::from_hours(2), SimTime::from_hours(4)};
  auto config = fast_scenario();
  config.fault_schedule = fault::FaultScheduleBuilder()
                              .name("k0-outage")
                              .site_fault('K', 0, outage)
                              .build();
  sim::SimulationEngine engine(std::move(config));
  const sim::SimulationResult result = engine.run();

  const std::vector<int> k_sites = result.sites_of('K');
  ASSERT_FALSE(k_sites.empty());
  const int faulted = k_sites.front();
  const auto& served =
      result.site_served_qps[static_cast<std::size_t>(faulted)];

  // Quiet morning before the fault: the site carries traffic. During the
  // outage window: nothing reaches a withdrawn site.
  const SimInterval before{SimTime(0), SimTime::from_hours(2)};
  EXPECT_GT(mean_over(served, before), 0.0);
  EXPECT_EQ(mean_over(served, outage), 0.0);
  // Restored afterwards (pre-event stretch, 4h..6h, still quiet).
  const SimInterval after{SimTime::from_hours(4), SimTime::from_hours(6)};
  EXPECT_GT(mean_over(served, after), 0.0);
}

TEST(FaultIntegration, VpDropoutThinsTheRecordStream) {
  auto baseline_config = fast_scenario();
  sim::SimulationEngine baseline_engine(std::move(baseline_config));
  const auto baseline = baseline_engine.run();

  fault::VpDropout dropout;
  dropout.window = {SimTime(0), SimTime::from_hours(10)};
  dropout.fraction = 0.5;
  auto dropped_config = fast_scenario();
  dropped_config.fault_schedule.name = "half-dark";
  dropped_config.fault_schedule.vp_dropouts.push_back(dropout);
  sim::SimulationEngine dropped_engine(std::move(dropped_config));
  const auto dropped = dropped_engine.run();

  ASSERT_GT(baseline.records.size(), 0u);
  // Half the VPs silent for the whole run: the stream thins accordingly
  // (generous band — cleaning interacts with which VPs go dark).
  EXPECT_LT(dropped.records.size(), baseline.records.size() * 7 / 10);
  EXPECT_GT(dropped.records.size(), baseline.records.size() * 3 / 10);
}

TEST(FaultIntegration, LegitSurgeRaisesOfferedLoad) {
  const SimInterval surge_window{SimTime::from_hours(2),
                                 SimTime::from_hours(4)};
  auto baseline_config = fast_scenario();
  sim::SimulationEngine baseline_engine(std::move(baseline_config));
  const auto baseline = baseline_engine.run();

  auto surged_config = fast_scenario();
  surged_config.fault_schedule =
      fault::FaultScheduleBuilder().name("surge").legit_surge(surge_window, 3.0)
          .build();
  sim::SimulationEngine surged_engine(std::move(surged_config));
  const auto surged = surged_engine.run();

  const int b = baseline.service_index('B');
  ASSERT_GE(b, 0);
  const double quiet_offered = mean_over(
      baseline.service_offered_qps[static_cast<std::size_t>(b)], surge_window);
  const double surged_offered = mean_over(
      surged.service_offered_qps[static_cast<std::size_t>(b)], surge_window);
  EXPECT_GT(surged_offered, quiet_offered * 2.0);
  // Outside the surge window nothing changed.
  const SimInterval before{SimTime(0), SimTime::from_hours(2)};
  EXPECT_DOUBLE_EQ(
      mean_over(surged.service_offered_qps[static_cast<std::size_t>(b)],
                before),
      mean_over(baseline.service_offered_qps[static_cast<std::size_t>(b)],
                before));
}

}  // namespace
}  // namespace rootstress
