#include "core/whatif.h"

#include <gtest/gtest.h>

#include "sim/scenario_builder.h"

namespace rootstress::core {
namespace {

sim::ScenarioConfig fast_config() {
  sim::ScenarioConfig config =
      sim::ScenarioBuilder::november_2015().vp_count(50).build();
  config.deployment.topology.stub_count = 250;
  config.end = net::SimTime::from_hours(10);  // event 1 only
  return config;
}

TEST(WhatIf, ComparesFourRegimes) {
  const auto outcomes = compare_policy_regimes(fast_config());
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0].regime, PolicyRegime::kAsDeployed);
  EXPECT_EQ(outcomes[1].regime, PolicyRegime::kAllAbsorb);
  EXPECT_EQ(outcomes[2].regime, PolicyRegime::kAllWithdraw);
  EXPECT_EQ(outcomes[3].regime, PolicyRegime::kOracle);
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.letters.size(), 13u);  // A..M (.nl is not a letter)
    EXPECT_GT(outcome.mean_served_event1, 0.0);
    EXPECT_LE(outcome.mean_served_event1, 1.0);
  }
}

TEST(WhatIf, AbsorbRegimeMinimizesChurn) {
  const auto outcomes = compare_policy_regimes(fast_config());
  // Committed absorbers never withdraw: routing churn is background
  // maintenance only; the withdraw regime floods the table.
  EXPECT_LT(outcomes[1].total_route_changes,
            outcomes[2].total_route_changes / 5);
}

TEST(WhatIf, NotAttackedLettersUnaffectedByRegime) {
  const auto outcomes = compare_policy_regimes(fast_config());
  for (const auto& outcome : outcomes) {
    for (const auto& lo : outcome.letters) {
      if (lo.letter == 'L' || lo.letter == 'M') {
        EXPECT_GT(lo.served_fraction_event1, 0.95)
            << lo.letter << " under " << to_string(outcome.regime);
      }
    }
  }
}

TEST(WhatIf, UnicastLetterImmuneToPolicy) {
  // B has one site and cannot shed load: every regime looks the same.
  const auto outcomes = compare_policy_regimes(fast_config());
  const auto b_of = [](const RegimeOutcome& o) {
    for (const auto& lo : o.letters) {
      if (lo.letter == 'B') return lo.served_fraction_event1;
    }
    return -1.0;
  };
  EXPECT_NEAR(b_of(outcomes[0]), b_of(outcomes[1]), 0.02);
  EXPECT_NEAR(b_of(outcomes[0]), b_of(outcomes[2]), 0.02);
}

TEST(WhatIf, RegimeNames) {
  EXPECT_EQ(to_string(PolicyRegime::kAsDeployed), "as-deployed");
  EXPECT_EQ(to_string(PolicyRegime::kAllAbsorb), "all-absorb");
  EXPECT_EQ(to_string(PolicyRegime::kAllWithdraw), "all-withdraw");
  EXPECT_EQ(to_string(PolicyRegime::kOracle), "oracle-advisor");
}

TEST(WhatIf, ApplyRegimePreservesAnAttachedPlaybook) {
  // Campaigns combine a policy axis with a playbook axis; forcing a
  // regime must only touch the regime knobs, never strip the playbook.
  sim::ScenarioConfig config = fast_config();
  config.playbook = playbook::Playbook::withdraw_at_threshold(0.35);

  apply_policy_regime(config, PolicyRegime::kAllAbsorb);
  ASSERT_TRUE(config.playbook.has_value());
  EXPECT_EQ(config.playbook->name, "withdraw-at-threshold");
  EXPECT_TRUE(config.deployment.force_policy.has_value());

  apply_policy_regime(config, PolicyRegime::kAllWithdraw);
  EXPECT_TRUE(config.playbook.has_value());
}

TEST(WhatIf, OracleIsCompetitive) {
  // The adaptive controller should never be far behind the best fixed
  // regime on served traffic (it can only misjudge transiently).
  const auto outcomes = compare_policy_regimes(fast_config());
  double best_fixed = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    best_fixed = std::max(best_fixed, outcomes[i].mean_served_event1);
  }
  EXPECT_GT(outcomes[3].mean_served_event1, best_fixed - 0.15);
}

}  // namespace
}  // namespace rootstress::core
