// Site ingress queue model: loss and delay as a function of offered load.
//
// The paper attributes the 1-2 second RTTs at surviving K-Root sites to
// "an overloaded link combined with large buffering at routers
// (industrial-scale bufferbloat)" (§3.3.2). We model a site ingress as a
// FIFO served at the site capacity with a deep buffer:
//   - below ~90% utilization: negligible loss, small M/M/1-style delay;
//   - at saturation: the buffer fills, adding buffer/capacity seconds of
//     standing queue, and arrivals beyond capacity are dropped
//     (loss = 1 - capacity/offered).
#pragma once

namespace rootstress::obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace rootstress::obs

namespace rootstress::anycast {

/// Result of pushing `offered` q/s through a site.
struct QueueOutcome {
  double loss_fraction = 0.0;   ///< probability an arriving query is dropped
  double queue_delay_ms = 0.0;  ///< standing-queue delay added to the RTT
  double served_qps = 0.0;      ///< goodput leaving the queue
  double utilization = 0.0;     ///< offered / capacity
};

/// Queue parameters.
struct QueueConfig {
  double capacity_qps = 1e6;    ///< service rate
  double buffer_packets = 1e6;  ///< deep buffer -> seconds of bufferbloat
  /// Utilization where the standing queue starts to build; the delay ramps
  /// linearly from here to full bufferbloat at utilization 1.0.
  double knee_utilization = 0.9;
};

/// Evaluates the queue at a given offered load. `offered_qps` >= 0;
/// a non-positive capacity means the site serves nothing (loss = 1).
QueueOutcome evaluate_queue(double offered_qps, const QueueConfig& config) noexcept;

/// Cached instrument pointers for one letter's queue telemetry. All null
/// by default, in which case recording is a no-op. Instruments are shared
/// across a letter's sites (per-letter cardinality keeps snapshots small).
struct QueueInstruments {
  obs::Histogram* utilization = nullptr;  ///< per-step rho, 0.25-wide bins
  obs::Histogram* loss = nullptr;         ///< per-step loss, 0.05-wide bins
  obs::Counter* saturated_steps = nullptr;
};

/// Registers (or reuses) the per-letter queue instruments.
QueueInstruments make_queue_instruments(obs::MetricsRegistry& metrics,
                                        char letter);

/// Records one step's queue outcome into `instruments` (null members
/// skipped): once per step, whether the outcome was evaluated afresh or
/// kept from the step before.
void record_queue_outcome(const QueueOutcome& outcome,
                          const QueueInstruments& instruments);

/// Additional loss imposed by a shared facility uplink carrying
/// `offered_gbps` over a link of `uplink_gbps`. Zero when within capacity.
double uplink_loss(double offered_gbps, double uplink_gbps) noexcept;

}  // namespace rootstress::anycast
