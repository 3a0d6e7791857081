#include "core/evaluation.h"

#include <gtest/gtest.h>

#include "sim/scenario_builder.h"

namespace rootstress::core {
namespace {

sim::ScenarioConfig fast_scenario() {
  sim::ScenarioConfig config =
      sim::ScenarioBuilder::november_2015().vp_count(120).build();
  config.deployment.topology.stub_count = 250;
  config.end = net::SimTime::from_hours(10);
  config.probe_window.end = config.end;
  config.probe_letters = {'B', 'D', 'K'};
  return config;
}

TEST(Evaluation, SummarizesEveryLetter) {
  const auto report = evaluate_scenario(fast_scenario());
  ASSERT_EQ(report.letters.size(), 13u);
  EXPECT_EQ(report.grids.size(), 14u);
  for (const auto& summary : report.letters) {
    EXPECT_GE(summary.letter, 'A');
    EXPECT_LE(summary.letter, 'M');
    EXPECT_GT(summary.reported_sites, 0);
  }
}

TEST(Evaluation, ProbedLettersHaveData) {
  const auto report = evaluate_scenario(fast_scenario());
  for (const auto& summary : report.letters) {
    const bool probed = summary.letter == 'B' || summary.letter == 'D' ||
                        summary.letter == 'K';
    if (probed) {
      EXPECT_GT(summary.baseline_vps, 0) << summary.letter;
      EXPECT_GT(summary.observed_sites, 0) << summary.letter;
      EXPECT_GT(summary.median_rtt_quiet_ms, 0.0) << summary.letter;
    } else {
      EXPECT_EQ(summary.observed_sites, 0) << summary.letter;
    }
  }
}

TEST(Evaluation, AttackShowsInSummaries) {
  const auto report = evaluate_scenario(fast_scenario());
  const auto find = [&report](char letter) {
    for (const auto& s : report.letters) {
      if (s.letter == letter) return s;
    }
    return LetterSummary{};
  };
  const auto b = find('B');
  const auto d = find('D');
  EXPECT_GT(b.worst_loss, 0.5);   // unicast letter crushed
  EXPECT_LT(d.worst_loss, 0.35);  // not attacked
  // B observed exactly its one site; K sees many.
  EXPECT_EQ(b.observed_sites, 1);
  EXPECT_GT(find('K').observed_sites, 10);
  // K generates site flips during the event.
  EXPECT_GT(find('K').site_flips, 0);
}

}  // namespace
}  // namespace rootstress::core
