#include "attack/events2016.h"

#include <gtest/gtest.h>

#include "sim/scenario_builder.h"

namespace rootstress::attack {
namespace {

TEST(Events2016, SinglePulseShape) {
  const auto schedule = events_of_june_2016();
  ASSERT_EQ(schedule.events().size(), 1u);
  const auto& e = schedule.events()[0];
  EXPECT_EQ(e.when.duration().hours(), 3.0);
  EXPECT_GT(e.query_payload_bytes, 0.0);
  EXPECT_LT(e.duplicate_fraction, 0.6);  // broader mix than 2015
  EXPECT_EQ(schedule.active(kEvent2016.begin), &schedule.events()[0]);
  EXPECT_EQ(schedule.active(kEvent2016.end), nullptr);
}

TEST(Events2016, ScenarioFactoryWiresSchedule) {
  const auto config =
      sim::ScenarioBuilder::events_2016().vp_count(100).attack_qps(7e6).build();
  ASSERT_EQ(config.schedule.events().size(), 1u);
  EXPECT_DOUBLE_EQ(config.schedule.events()[0].per_letter_qps, 7e6);
  EXPECT_EQ(config.population.vp_count, 100);
}

}  // namespace
}  // namespace rootstress::attack
