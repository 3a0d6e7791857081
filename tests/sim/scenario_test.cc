#include "sim/scenario.h"

#include <gtest/gtest.h>

#include "attack/events2015.h"
#include "sim/engine.h"
#include "sim/scenario_builder.h"
#include "util/parallel.h"

namespace rootstress::sim {
namespace {

TEST(Scenario, DefaultsAreValid) {
  EXPECT_TRUE(validate(ScenarioConfig{}).empty());
  const auto nov = ScenarioBuilder::november_2015().vp_count(100);
  EXPECT_TRUE(validate(nov.peek()).empty());
  EXPECT_TRUE(validate(ScenarioBuilder(nov).include_baseline_week().build())
                  .empty());
  EXPECT_TRUE(
      validate(ScenarioBuilder::quiet_days().vp_count(100).peek()).empty());
}

TEST(Scenario, BaselineWeekExtendsSpanButNotProbing) {
  const auto config = ScenarioBuilder::november_2015()
                          .vp_count(100)
                          .include_baseline_week()
                          .build();
  EXPECT_EQ(config.start, net::SimTime::from_hours(-7 * 24));
  EXPECT_EQ(config.probe_window.begin, net::SimTime(0));
}

struct BadCase {
  const char* name;
  ScenarioConfig config;
};

class ScenarioValidation : public ::testing::Test {};

TEST(ScenarioValidation, RejectsBrokenConfigs) {
  {
    ScenarioConfig c;
    c.end = c.start;
    EXPECT_FALSE(validate(c).empty()) << "empty span";
  }
  {
    ScenarioConfig c;
    c.step = net::SimTime(0);
    EXPECT_FALSE(validate(c).empty()) << "zero step";
  }
  {
    ScenarioConfig c;
    c.bin_width = net::SimTime(-1);
    EXPECT_FALSE(validate(c).empty()) << "negative bin";
  }
  {
    ScenarioConfig c;
    c.step = net::SimTime::from_minutes(20);  // > 10-min bins
    EXPECT_FALSE(validate(c).empty()) << "step > bin";
  }
  {
    ScenarioConfig c;
    c.population.vp_count = -5;
    EXPECT_FALSE(validate(c).empty()) << "negative vps";
  }
  {
    ScenarioConfig c;
    c.threads = util::kMaxThreads;
    EXPECT_TRUE(validate(c).empty()) << "threads at the lane bound";
    c.threads = util::kMaxThreads + 1;
    EXPECT_FALSE(validate(c).empty()) << "threads past the lane bound";
  }
  {
    ScenarioConfig c;
    c.probe_window = net::SimInterval{net::SimTime(100), net::SimTime(0)};
    EXPECT_FALSE(validate(c).empty()) << "inverted probe window";
  }
  {
    ScenarioConfig c;
    attack::AttackEvent e;
    e.when = {net::SimTime(100), net::SimTime(100)};
    c.schedule.add(e);
    EXPECT_FALSE(validate(c).empty()) << "zero-length event";
  }
  {
    ScenarioConfig c;
    attack::AttackEvent e;
    e.when = {net::SimTime(0), net::SimTime(100)};
    e.per_letter_qps = -1.0;
    c.schedule.add(e);
    EXPECT_FALSE(validate(c).empty()) << "negative rate";
  }
}

TEST(ScenarioValidation, EngineRejectsInvalidConfig) {
  ScenarioConfig config;
  config.end = config.start;
  EXPECT_THROW(SimulationEngine{config}, std::invalid_argument);
}

TEST(Scenario, VpCountFromEnvFallback) {
  // Without the env var set (test environment), the fallback applies.
  unsetenv("ROOTSTRESS_VPS");
  EXPECT_EQ(vp_count_from_env(123), 123);
  setenv("ROOTSTRESS_VPS", "77", 1);
  EXPECT_EQ(vp_count_from_env(123), 77);
  // Anything but a whole int >= 1 falls back.
  for (const char* value : {"garbage", "", "3x", "-3", "0", "99999999999"}) {
    setenv("ROOTSTRESS_VPS", value, 1);
    EXPECT_EQ(vp_count_from_env(123), 123) << '"' << value << '"';
  }
  // Unlike the lane count, a VP count has no bound below INT_MAX.
  setenv("ROOTSTRESS_VPS", "100000", 1);
  EXPECT_EQ(vp_count_from_env(123), 100000);
  unsetenv("ROOTSTRESS_VPS");
}


}  // namespace
}  // namespace rootstress::sim
