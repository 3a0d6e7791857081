// Wall-clock rate envelopes: how attack schedules become send rates.
//
// The simulator's attack timelines (fault::PulseWave envelopes) are
// declared in SimTime over hours at multi-Mq/s; a wire run compresses
// them onto seconds of wall time at loopback-sized rates. A RateEnvelope
// is the bridge: a piecewise-constant qps(t) over wall seconds, built
// from a constant or a pulse wave via two knobs —
//   rate_scale:  wire qps per modeled qps (e.g. 1e-2 maps 5 Mq/s -> 50k)
//   time_scale:  modeled seconds per wall second (e.g. 3600 replays an
//                hour-long event in one second)
// Workers sample qps_at(t) each tick and re-target their token buckets,
// so the generator traces the same pulse shapes the fluid engine sees.
#pragma once

#include <vector>

#include "fault/schedule.h"

namespace rootstress::netio {

/// One piecewise segment: offered `qps` over wall [begin_s, end_s).
struct RateSegment {
  double begin_s = 0.0;
  double end_s = 0.0;
  double qps = 0.0;

  bool operator==(const RateSegment&) const = default;
};

class RateEnvelope {
 public:
  RateEnvelope() = default;
  explicit RateEnvelope(std::vector<RateSegment> segments);

  /// Flat `qps` forever.
  static RateEnvelope constant(double qps);

  /// Replays a fault-layer pulse wave: square pulses become hot/floor
  /// segment pairs; sawtooth ramps are stepped into `ramp_steps` slices.
  static RateEnvelope from_pulse(const fault::PulseWave& pulse,
                                 double rate_scale, double time_scale,
                                 int ramp_steps = 8);

  /// Offered qps at wall time `t_s`; a constant envelope returns its rate
  /// for all t, a segmented one 0 outside its segments.
  double qps_at(double t_s) const noexcept;

  /// Mean offered qps over [0, duration_s) (exact segment integral).
  double mean_qps(double duration_s) const noexcept;

  /// Wall end of the last segment (0 for constant envelopes).
  double end_s() const noexcept;

  const std::vector<RateSegment>& segments() const noexcept {
    return segments_;
  }
  bool is_constant() const noexcept { return constant_; }

 private:
  bool constant_ = true;
  double constant_qps_ = 0.0;
  std::vector<RateSegment> segments_;  ///< sorted, non-overlapping
};

}  // namespace rootstress::netio
