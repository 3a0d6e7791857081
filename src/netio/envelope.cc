#include "netio/envelope.h"

#include <algorithm>

namespace rootstress::netio {

RateEnvelope::RateEnvelope(std::vector<RateSegment> segments)
    : constant_(false), segments_(std::move(segments)) {
  std::sort(segments_.begin(), segments_.end(),
            [](const RateSegment& a, const RateSegment& b) {
              return a.begin_s < b.begin_s;
            });
}

RateEnvelope RateEnvelope::constant(double qps) {
  RateEnvelope e;
  e.constant_ = true;
  e.constant_qps_ = qps < 0 ? 0 : qps;
  return e;
}

RateEnvelope RateEnvelope::from_pulse(const fault::PulseWave& pulse,
                                      double rate_scale, double time_scale,
                                      int ramp_steps) {
  std::vector<RateSegment> segments;
  const double ts = time_scale <= 0 ? 1.0 : time_scale;
  const double peak = pulse.peak_qps * rate_scale;
  const double floor = peak * std::clamp(pulse.floor_scale, 0.0, 1.0);
  const double period_s = pulse.period.seconds();
  const double window_begin = pulse.window.begin.seconds();
  const double window_end = pulse.window.end.seconds();
  const int steps = std::max(1, ramp_steps);
  if (period_s <= 0 || window_end <= window_begin) return RateEnvelope(segments);
  for (double t = window_begin; t < window_end; t += period_s) {
    const double hot_end = std::min(t + period_s * pulse.duty, window_end);
    if (pulse.shape == fault::PulseShape::kSquare) {
      segments.push_back(RateSegment{t / ts, hot_end / ts, peak});
    } else {
      // Sawtooth: linear 0 -> peak across the on-window, stepped.
      const double slice = (hot_end - t) / steps;
      for (int i = 0; i < steps; ++i) {
        const double level = peak * (static_cast<double>(i) + 0.5) /
                             static_cast<double>(steps);
        segments.push_back(RateSegment{(t + slice * i) / ts,
                                       (t + slice * (i + 1)) / ts, level});
      }
    }
    const double idle_end = std::min(t + period_s, window_end);
    if (floor > 0 && idle_end > hot_end) {
      segments.push_back(RateSegment{hot_end / ts, idle_end / ts, floor});
    }
  }
  return RateEnvelope(std::move(segments));
}

double RateEnvelope::qps_at(double t_s) const noexcept {
  if (constant_) return constant_qps_;
  // Segments are sorted by begin; find the last one starting at or
  // before t and check coverage.
  auto it = std::upper_bound(segments_.begin(), segments_.end(), t_s,
                             [](double t, const RateSegment& s) {
                               return t < s.begin_s;
                             });
  if (it == segments_.begin()) return 0.0;
  --it;
  return (t_s >= it->begin_s && t_s < it->end_s) ? it->qps : 0.0;
}

double RateEnvelope::mean_qps(double duration_s) const noexcept {
  if (duration_s <= 0) return 0.0;
  if (constant_) return constant_qps_;
  double area = 0.0;
  for (const RateSegment& s : segments_) {
    const double lo = std::max(0.0, s.begin_s);
    const double hi = std::min(duration_s, s.end_s);
    if (hi > lo) area += (hi - lo) * s.qps;
  }
  return area / duration_s;
}

double RateEnvelope::end_s() const noexcept {
  double end = 0.0;
  for (const RateSegment& s : segments_) end = std::max(end, s.end_s);
  return end;
}

}  // namespace rootstress::netio
