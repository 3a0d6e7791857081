#include "anycast/queue_model.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"

namespace rootstress::anycast {

QueueOutcome evaluate_queue(double offered_qps,
                            const QueueConfig& config) noexcept {
  QueueOutcome out;
  if (offered_qps <= 0.0) {
    out.served_qps = 0.0;
    return out;
  }
  if (config.capacity_qps <= 0.0) {
    out.loss_fraction = 1.0;
    out.utilization = 1.0;
    return out;
  }
  const double rho = offered_qps / config.capacity_qps;
  out.utilization = rho;
  const double full_queue_ms =
      config.buffer_packets / config.capacity_qps * 1000.0;

  if (rho < config.knee_utilization) {
    // Light load: M/M/1 waiting time, bounded to keep the model tame.
    const double service_ms = 1000.0 / config.capacity_qps;
    out.queue_delay_ms =
        std::min(5.0, service_ms * rho / std::max(1e-9, 1.0 - rho));
    out.loss_fraction = 0.0;
    out.served_qps = offered_qps;
    return out;
  }
  if (rho < 1.0) {
    // Knee region: the standing queue builds from the M/M/1 delay at the
    // knee toward the full buffer (continuous at both ends).
    const double service_ms = 1000.0 / config.capacity_qps;
    const double knee = config.knee_utilization;
    const double at_knee =
        std::min(5.0, service_ms * knee / std::max(1e-9, 1.0 - knee));
    const double ramp = (rho - knee) / (1.0 - knee);
    out.queue_delay_ms = at_knee + ramp * (full_queue_ms - at_knee);
    out.loss_fraction = 0.0;
    out.served_qps = offered_qps;
    return out;
  }
  // Saturated: buffer full, tail drops.
  out.queue_delay_ms = full_queue_ms;
  out.loss_fraction = 1.0 - 1.0 / rho;
  out.served_qps = config.capacity_qps;
  return out;
}

QueueInstruments make_queue_instruments(obs::MetricsRegistry& metrics,
                                        char letter) {
  const obs::Labels labels{{"letter", std::string(1, letter)}};
  QueueInstruments out;
  // rho can exceed 1 under attack; 16 bins of 0.25 cover up to 4x capacity
  // with the overflow bin absorbing the rest.
  out.utilization =
      &metrics.histogram("queue.utilization", labels, 0.25, 16);
  out.loss = &metrics.histogram("queue.loss", labels, 0.05, 21);
  out.saturated_steps = &metrics.counter("queue.saturated_steps", labels);
  return out;
}

void record_queue_outcome(const QueueOutcome& outcome,
                          const QueueInstruments& instruments) {
  if (instruments.utilization != nullptr) {
    instruments.utilization->observe(outcome.utilization);
  }
  if (instruments.loss != nullptr) {
    instruments.loss->observe(outcome.loss_fraction);
  }
  if (instruments.saturated_steps != nullptr && outcome.utilization >= 1.0) {
    instruments.saturated_steps->add();
  }
}

double uplink_loss(double offered_gbps, double uplink_gbps) noexcept {
  if (uplink_gbps <= 0.0) return offered_gbps > 0.0 ? 1.0 : 0.0;
  if (offered_gbps <= uplink_gbps) return 0.0;
  return 1.0 - uplink_gbps / offered_gbps;
}

}  // namespace rootstress::anycast
