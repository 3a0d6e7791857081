// Fluid (rate-based) per-step load computation.
//
// Aggregate traffic is far too large to simulate per packet (5 Mq/s per
// letter for hours); loads are computed as rates per step and fed to the
// queue model, while individual Atlas probes sample the resulting
// loss/delay. These helpers compute per-site loads and facility uplink
// pressure for one service in one step.
#pragma once

#include <vector>

#include "anycast/deployment.h"
#include "attack/botnet.h"
#include "attack/schedule.h"
#include "attack/traffic.h"

namespace rootstress::sim {

/// Per-site offered load of one service for one step.
///
/// The per-site vectors are sized site_count + 1: the trailing element is
/// the sink lane the SoA kernels accumulate routeless traffic into (see
/// AnycastRouting::set_unrouted_slot). compute_service_load_into drains
/// the sink into unrouted_* and zeroes it before returning, so consumers
/// indexing by global site id never observe it.
struct ServiceLoad {
  std::vector<double> attack_qps;  ///< indexed by global site id
  std::vector<double> legit_qps;
  double unrouted_attack = 0.0;    ///< traffic with no route (blackholed)
  double unrouted_legit = 0.0;
};

/// Computes where one service's traffic lands given current routing,
/// writing into `out`. `attack_total_qps` is 0 when the service is not
/// under attack. Allocation-free after first use (the engine preallocates
/// one ServiceLoad per service and reuses them every step). Safe to call
/// concurrently for different services/outputs; reads only routing state.
void compute_service_load_into(const anycast::RootDeployment& deployment,
                               const anycast::ServiceInfo& service,
                               const attack::Botnet& botnet,
                               const attack::LegitTraffic& legit,
                               double attack_total_qps,
                               double legit_total_qps, ServiceLoad& out);

/// Estimated Gb/s this site pushes through its facility uplink at the
/// given offered load: query ingress plus (capacity-clamped) response
/// egress after RRL suppression.
double site_uplink_gbps(const anycast::AnycastSite& site, double offered_qps,
                        double query_payload_bytes,
                        double response_payload_bytes,
                        double response_suppression);

}  // namespace rootstress::sim
