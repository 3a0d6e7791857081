// Failure injection and degenerate configurations: the simulator must
// stay well-defined at the edges (no VPs, no attack, absurd attack, tiny
// topologies, letters nobody probes, zero-length windows).
#include <gtest/gtest.h>

#include "attack/events2015.h"
#include "core/evaluation.h"
#include "sim/engine.h"
#include "sim/scenario_builder.h"

namespace rootstress {
namespace {

sim::ScenarioConfig tiny_base() {
  sim::ScenarioConfig config =
      sim::ScenarioBuilder::november_2015().vp_count(30).build();
  config.deployment.topology.stub_count = 150;
  config.end = net::SimTime::from_hours(2);
  config.probe_window.end = config.end;
  config.probe_letters = {'K'};
  return config;
}

TEST(Robustness, NoVantagePoints) {
  auto config = tiny_base();
  config.population.vp_count = 0;
  sim::SimulationEngine engine(std::move(config));
  const auto result = engine.run();
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.cleaning.total_vps, 0);
  EXPECT_FALSE(result.service_served_qps.empty());  // fluid still runs
}

TEST(Robustness, NoAttackQuietDays) {
  auto config = tiny_base();
  config.schedule = attack::AttackSchedule{};
  sim::SimulationEngine engine(std::move(config));
  const auto result = engine.run();
  // Everything served; essentially no failures.
  const int k = result.service_index('K');
  const auto& failed =
      result.service_failed_legit_qps[static_cast<std::size_t>(k)];
  for (std::size_t b = 0; b < failed.bin_count(); ++b) {
    EXPECT_LT(failed.mean(b), 2000.0);  // only maintenance-flap blips
  }
}

TEST(Robustness, AbsurdAttackRate) {
  // 100 Mq/s per letter: everything melts, nothing crashes, probabilities
  // stay in range.
  auto config = tiny_base();
  config.schedule = attack::events_of_november_2015(100e6);
  sim::SimulationEngine engine(std::move(config));
  const auto result = engine.run();
  for (const auto& record : result.records) {
    if (record.outcome == atlas::ProbeOutcome::kSite) {
      EXPECT_LT(record.rtt_ms, 5000);
    }
  }
  for (int id = 0; id < static_cast<int>(result.site_loss_fraction.size());
       ++id) {
    const auto& series = result.site_loss_fraction[static_cast<std::size_t>(id)];
    for (std::size_t b = 0; b < series.bin_count(); ++b) {
      if (series.count(b) == 0) continue;
      EXPECT_GE(series.mean(b), 0.0);
      EXPECT_LE(series.mean(b), 1.0);
    }
  }
}

TEST(Robustness, ZeroLengthProbeWindow) {
  auto config = tiny_base();
  config.probe_window = net::SimInterval{net::SimTime(0), net::SimTime(0)};
  sim::SimulationEngine engine(std::move(config));
  const auto result = engine.run();
  EXPECT_TRUE(result.records.empty());
}

TEST(Robustness, UnknownProbeLetterIgnored) {
  auto config = tiny_base();
  config.probe_letters = {'Z'};
  sim::SimulationEngine engine(std::move(config));
  const auto result = engine.run();
  EXPECT_TRUE(result.records.empty());
}

TEST(Robustness, NlExcludedStillRuns) {
  auto config = tiny_base();
  config.deployment.include_nl = false;
  sim::SimulationEngine engine(std::move(config));
  const auto result = engine.run();
  EXPECT_EQ(result.letter_chars.size(), 13u);
  EXPECT_EQ(result.service_index('N'), -1);
}

TEST(Robustness, CollectorDisabled) {
  auto config = tiny_base();
  config.enable_collector = false;
  sim::SimulationEngine engine(std::move(config));
  const auto result = engine.run();
  EXPECT_TRUE(result.collector_series.empty());
  EXPECT_FALSE(result.route_changes.empty() &&
               result.records.empty());  // the rest still works
}

TEST(Robustness, RssacDisabled) {
  auto config = tiny_base();
  config.collect_rssac = false;
  sim::SimulationEngine engine(std::move(config));
  const auto result = engine.run();
  for (const auto& pub : result.rssac_publishers) {
    EXPECT_FALSE(result.rssac.has(pub.letter_index, 0));
  }
}

TEST(Robustness, CoarseStepsStillConverge) {
  auto config = tiny_base();
  config.step = net::SimTime::from_minutes(10);  // one step per bin
  sim::SimulationEngine engine(std::move(config));
  const auto result = engine.run();
  EXPECT_FALSE(result.records.empty());
}

TEST(Robustness, EvaluateScenarioOnTinyWorld) {
  auto config = tiny_base();
  config.population.vp_count = 5;
  const auto report = core::evaluate_scenario(std::move(config));
  EXPECT_EQ(report.letters.size(), 13u);
}

}  // namespace
}  // namespace rootstress
