#include <gtest/gtest.h>

#include "netio/envelope.h"

namespace rootstress::netio {
namespace {

TEST(RateEnvelope, ConstantIsFlatForever) {
  const RateEnvelope env = RateEnvelope::constant(12500.0);
  EXPECT_TRUE(env.is_constant());
  EXPECT_DOUBLE_EQ(env.qps_at(0.0), 12500.0);
  EXPECT_DOUBLE_EQ(env.qps_at(1e6), 12500.0);
  EXPECT_DOUBLE_EQ(env.mean_qps(10.0), 12500.0);
  EXPECT_DOUBLE_EQ(env.end_s(), 0.0);
}

TEST(RateEnvelope, SegmentsAreZeroOutside) {
  const RateEnvelope env({{1.0, 2.0, 100.0}, {3.0, 4.0, 300.0}});
  EXPECT_FALSE(env.is_constant());
  EXPECT_DOUBLE_EQ(env.qps_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(env.qps_at(1.0), 100.0);
  EXPECT_DOUBLE_EQ(env.qps_at(1.999), 100.0);
  EXPECT_DOUBLE_EQ(env.qps_at(2.5), 0.0);
  EXPECT_DOUBLE_EQ(env.qps_at(3.5), 300.0);
  EXPECT_DOUBLE_EQ(env.qps_at(9.0), 0.0);
  EXPECT_DOUBLE_EQ(env.end_s(), 4.0);
}

TEST(RateEnvelope, MeanIsExactSegmentIntegral) {
  const RateEnvelope env({{0.0, 1.0, 100.0}, {1.0, 3.0, 400.0}});
  // Integral over [0, 4): 100*1 + 400*2 = 900 over 4s.
  EXPECT_DOUBLE_EQ(env.mean_qps(4.0), 225.0);
  // Over [0, 2): 100 + 400 = 500 over 2s.
  EXPECT_DOUBLE_EQ(env.mean_qps(2.0), 250.0);
}

TEST(RateEnvelope, FromPulseSquareAlternatesHotAndFloor) {
  fault::PulseWave pulse;
  pulse.window = net::SimInterval{net::SimTime(0),
                                  net::SimTime::from_seconds(4)};
  pulse.period = net::SimTime::from_seconds(2);
  pulse.duty = 0.5;
  pulse.shape = fault::PulseShape::kSquare;
  pulse.peak_qps = 1000.0;
  pulse.floor_scale = 0.1;
  const RateEnvelope env = RateEnvelope::from_pulse(pulse, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(env.qps_at(0.5), 1000.0);  // hot half of pulse 0
  EXPECT_DOUBLE_EQ(env.qps_at(1.5), 100.0);   // floor half
  EXPECT_DOUBLE_EQ(env.qps_at(2.5), 1000.0);  // pulse 1 hot
  EXPECT_DOUBLE_EQ(env.qps_at(3.5), 100.0);
  EXPECT_DOUBLE_EQ(env.end_s(), 4.0);
}

TEST(RateEnvelope, FromPulseAppliesBothScales) {
  fault::PulseWave pulse;
  pulse.window = net::SimInterval{net::SimTime(0),
                                  net::SimTime::from_minutes(40)};
  pulse.period = net::SimTime::from_minutes(20);
  pulse.duty = 0.5;
  pulse.peak_qps = 5e6;
  // 1e-2 on rate, 20-minute pulse -> 1 wall second.
  const RateEnvelope env =
      RateEnvelope::from_pulse(pulse, 1e-2, 20.0 * 60.0);
  EXPECT_DOUBLE_EQ(env.qps_at(0.25), 5e4);
  EXPECT_DOUBLE_EQ(env.qps_at(0.75), 0.0);  // floor_scale 0: gap, no segment
  EXPECT_DOUBLE_EQ(env.qps_at(1.25), 5e4);  // second pulse's hot window
  EXPECT_DOUBLE_EQ(env.end_s(), 1.5);       // ends with pulse 1's hot half
}

TEST(RateEnvelope, SawtoothRampsInSteps) {
  fault::PulseWave pulse;
  pulse.window = net::SimInterval{net::SimTime(0),
                                  net::SimTime::from_seconds(2)};
  pulse.period = net::SimTime::from_seconds(2);
  pulse.duty = 1.0;
  pulse.shape = fault::PulseShape::kSawtooth;
  pulse.peak_qps = 800.0;
  const RateEnvelope env =
      RateEnvelope::from_pulse(pulse, 1.0, 1.0, /*ramp_steps=*/4);
  // A ramp: later steps offer more than earlier ones, ending near peak.
  EXPECT_LT(env.qps_at(0.1), env.qps_at(1.9));
  EXPECT_GT(env.qps_at(1.9), 0.5 * 800.0);
}

}  // namespace
}  // namespace rootstress::netio
