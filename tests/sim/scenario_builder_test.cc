#include "sim/scenario_builder.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "attack/events2015.h"
#include "attack/events2016.h"

namespace rootstress::sim {
namespace {

/// Every preset spans the two days from time 0, probes all of it, and
/// carries the default seed and a 1200-VP population.
void expect_two_day_preset(const ScenarioConfig& config) {
  EXPECT_EQ(config.seed, ScenarioConfig{}.seed);
  EXPECT_EQ(config.start.ms, 0);
  EXPECT_EQ(config.end, net::SimTime::from_hours(48));
  EXPECT_EQ(config.probe_window.begin.ms, 0);
  EXPECT_EQ(config.probe_window.end, net::SimTime::from_hours(48));
  EXPECT_EQ(config.population.vp_count, 1200);
}

TEST(ScenarioBuilder, November2015PresetFields) {
  const ScenarioConfig built = ScenarioBuilder::november_2015().build();
  expect_two_day_preset(built);
  const auto& events = built.schedule.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].when, attack::kEvent1);
  EXPECT_EQ(events[1].when, attack::kEvent2);
  for (const auto& event : events) EXPECT_EQ(event.per_letter_qps, 5e6);
}

TEST(ScenarioBuilder, QuietAnd2016PresetFields) {
  const ScenarioConfig quiet = ScenarioBuilder::quiet_days().build();
  expect_two_day_preset(quiet);
  EXPECT_TRUE(quiet.schedule.events().empty());

  const ScenarioConfig y16 = ScenarioBuilder::events_2016().build();
  expect_two_day_preset(y16);
  ASSERT_EQ(y16.schedule.events().size(), 1u);
  EXPECT_EQ(y16.schedule.events()[0].when, attack::kEvent2016);
  EXPECT_EQ(y16.schedule.events()[0].per_letter_qps, 6e6);
}

TEST(ScenarioBuilder, SyntheticTopologySizesDeploymentToTarget) {
  const ScenarioConfig config = ScenarioBuilder()
                                    .synthetic_topology(4000, 40, 0.6)
                                    .build();
  ASSERT_TRUE(config.deployment.synthetic.has_value());
  EXPECT_EQ(config.deployment.synthetic->sites_per_service, 40);
  EXPECT_DOUBLE_EQ(config.deployment.synthetic->global_fraction, 0.6);
  EXPECT_FALSE(config.deployment.include_nl);
  EXPECT_FALSE(config.collect_rssac);
  ASSERT_EQ(config.probe_letters.size(), 1u);
  EXPECT_EQ(config.probe_letters[0], 'A');

  anycast::RootDeployment deployment(config.deployment);
  // One synthetic service, its sites all present, no .nl rider.
  ASSERT_EQ(deployment.services().size(), 1u);
  EXPECT_EQ(deployment.services().front().letter, 'A');
  EXPECT_EQ(deployment.site_count(), 40);
  // Total AS count lands near the requested size (site host ASes and the
  // fixed tiers make it approximate, not exact).
  EXPECT_GT(deployment.topology().as_count(), 3500);
  EXPECT_LT(deployment.topology().as_count(), 4500);
  // Tiering: 60% global plus the BGP-scoped rest, codes short enough for
  // packed site keys, locations resolved without the geo registry.
  int global = 0;
  for (int s = 0; s < deployment.site_count(); ++s) {
    const auto& site = deployment.site(s);
    EXPECT_LE(site.code().size(), 7u);
    if (site.spec().global) ++global;
  }
  EXPECT_EQ(global, 24);
}

TEST(ScenarioBuilder, SyntheticTopologyIsDeterministicPerSeed) {
  const ScenarioConfig config =
      ScenarioBuilder().synthetic_topology(2000, 16).seed(7).build();
  anycast::RootDeployment a(config.deployment);
  anycast::RootDeployment b(config.deployment);
  ASSERT_EQ(a.site_count(), b.site_count());
  for (int s = 0; s < a.site_count(); ++s) {
    EXPECT_EQ(a.site(s).code(), b.site(s).code());
    EXPECT_EQ(a.site(s).spec().region, b.site(s).spec().region);
  }
  EXPECT_EQ(a.topology().as_count(), b.topology().as_count());
}

TEST(ScenarioBuilder, AttackQpsRewritesEveryScheduledEvent) {
  const ScenarioConfig config =
      ScenarioBuilder::november_2015().attack_qps(7.5e6).build();
  ASSERT_FALSE(config.schedule.events().empty());
  for (const auto& event : config.schedule.events()) {
    EXPECT_EQ(event.per_letter_qps, 7.5e6);
  }
}

TEST(ScenarioBuilder, DurationClampsPresetProbeWindow) {
  // The preset probes the full 48h; shortening the span must pull the
  // window in rather than fail validation.
  const ScenarioConfig config = ScenarioBuilder::november_2015()
                                    .duration(net::SimTime::from_hours(12))
                                    .build();
  EXPECT_EQ(config.end.ms, net::SimTime::from_hours(12).ms);
  EXPECT_LE(config.probe_window.end.ms, config.end.ms);
  EXPECT_GE(config.probe_window.begin.ms, config.start.ms);
}

TEST(ScenarioBuilder, ExplicitProbeWindowOutsideSpanIsRejected) {
  std::string error;
  const auto config =
      ScenarioBuilder::november_2015()
          .duration(net::SimTime::from_hours(12))
          .probe_window({net::SimTime(0), net::SimTime::from_hours(24)})
          .try_build(&error);
  EXPECT_FALSE(config.has_value());
  EXPECT_NE(error.find("probe window"), std::string::npos) << error;
}

TEST(ScenarioBuilder, BaselineWeekExtendsStart) {
  const ScenarioConfig config =
      ScenarioBuilder::november_2015().include_baseline_week().build();
  EXPECT_EQ(config.start.ms, net::SimTime::from_hours(-7 * 24).ms);
  // Probing still covers only the event days.
  EXPECT_GE(config.probe_window.begin.ms, 0);
}

TEST(ScenarioBuilder, RejectsNonPositiveStep) {
  std::string error;
  EXPECT_FALSE(ScenarioBuilder::quiet_days()
                   .step(net::SimTime(0))
                   .try_build(&error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ScenarioBuilder, RejectsEmptySpan) {
  std::string error;
  EXPECT_FALSE(ScenarioBuilder::quiet_days()
                   .span(net::SimTime::from_hours(10),
                         net::SimTime::from_hours(10))
                   .try_build(&error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ScenarioBuilder, RejectsBinWidthNotMultipleOfStep) {
  std::string error;
  EXPECT_FALSE(ScenarioBuilder::quiet_days()
                   .step(net::SimTime::from_seconds(60))
                   .bin_width(net::SimTime::from_seconds(90))
                   .try_build(&error)
                   .has_value());
  EXPECT_NE(error.find("multiple"), std::string::npos) << error;
}

TEST(ScenarioBuilder, RejectsBadFlapProbability) {
  std::string error;
  EXPECT_FALSE(ScenarioBuilder::quiet_days()
                   .maintenance_flap(1.5)
                   .try_build(&error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ScenarioBuilder::quiet_days()
                   .maintenance_flap(-0.1)
                   .try_build(&error)
                   .has_value());
}

TEST(ScenarioBuilder, RejectsNonPositiveCapacityScale) {
  std::string error;
  EXPECT_FALSE(ScenarioBuilder::november_2015()
                   .capacity_scale(0.0)
                   .try_build(&error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ScenarioBuilder, RejectsSyntheticDeploymentsPastInt16SiteIds) {
  // Probe records store the site id as an int16_t: 32767 sites fit, one
  // more would wrap.
  std::string error;
  EXPECT_TRUE(ScenarioBuilder()
                  .synthetic_topology(40000, 32767)
                  .try_build(&error)
                  .has_value())
      << error;
  EXPECT_FALSE(ScenarioBuilder()
                   .synthetic_topology(40000, 32768)
                   .try_build(&error)
                   .has_value());
  EXPECT_NE(error.find("32767"), std::string::npos) << error;
  // The bound covers every service's sites together.
  ScenarioConfig config =
      ScenarioBuilder().synthetic_topology(40000, 20000).build();
  config.deployment.synthetic->services = 2;
  EXPECT_NE(validate(config).find("32767"), std::string::npos);
}

TEST(ScenarioBuilder, BuildThrowsWithValidateMessage) {
  try {
    ScenarioBuilder::quiet_days().step(net::SimTime(0)).build();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ScenarioBuilder"),
              std::string::npos);
  }
}

TEST(ScenarioBuilder, PeekShowsStagedConfigWithoutResolution) {
  ScenarioBuilder builder = ScenarioBuilder::november_2015();
  builder.attack_qps(9e6);
  // peek() must not apply the deferred rewrite; build() must.
  EXPECT_NE(builder.peek().schedule.events().front().per_letter_qps, 9e6);
  EXPECT_EQ(builder.build().schedule.events().front().per_letter_qps, 9e6);
}

TEST(ScenarioBuilder, FluidOnlyDisablesCollection) {
  const ScenarioConfig config =
      ScenarioBuilder::november_2015().fluid_only().build();
  EXPECT_FALSE(config.collect_records);
  EXPECT_FALSE(config.collect_rssac);
  EXPECT_FALSE(config.enable_collector);
}

TEST(ScenarioBuilder, PlaybookAndRrlKnobsCarryThrough) {
  const ScenarioConfig config =
      ScenarioBuilder::november_2015()
          .playbook(playbook::Playbook::withdraw_at_threshold(0.35))
          .rrl_enabled(false)
          .build();
  ASSERT_TRUE(config.playbook.has_value());
  EXPECT_EQ(config.playbook->name, "withdraw-at-threshold");
  EXPECT_FALSE(config.deployment.rrl_enabled);
}

TEST(ScenarioBuilder, RejectsAnInvalidPlaybook) {
  playbook::Playbook broken = playbook::Playbook::withdraw_at_threshold();
  broken.rules[0].trigger.for_steps = 0;
  std::string error;
  EXPECT_FALSE(ScenarioBuilder::november_2015()
                   .playbook(broken)
                   .try_build(&error)
                   .has_value());
  EXPECT_NE(error.find("for_steps"), std::string::npos) << error;
}

TEST(ScenarioBuilder, RejectsPlaybookCombinedWithAdaptiveDefense) {
  // Two controllers would fight over the same announcements.
  std::string error;
  EXPECT_FALSE(ScenarioBuilder::november_2015()
                   .playbook(playbook::Playbook::absorb_only())
                   .adaptive_defense(true)
                   .try_build(&error)
                   .has_value());
  EXPECT_NE(error.find("mutually exclusive"), std::string::npos) << error;
}

}  // namespace
}  // namespace rootstress::sim
