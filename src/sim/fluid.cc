#include "sim/fluid.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>

#include "net/packet.h"

namespace rootstress::sim {

void compute_service_load_into(const anycast::RootDeployment& deployment,
                               const anycast::ServiceInfo& service,
                               const attack::Botnet& botnet,
                               const attack::LegitTraffic& legit,
                               double attack_total_qps,
                               double legit_total_qps, ServiceLoad& out) {
  const auto& routing = deployment.routing();
  const auto site_count = static_cast<std::size_t>(deployment.site_count());
  // RootDeployment always points routeless ASes at the sink lane right
  // past the last site: per-AS site slots feed branch-free accumulation
  // with routeless traffic landing in that lane, drained here.
  assert(routing.unrouted_slot() == static_cast<std::int32_t>(site_count));
  out.attack_qps.resize(site_count + 1);
  out.legit_qps.resize(site_count + 1);
  const std::span<const std::int32_t> slots = routing.site_of(service.prefix);
  if (attack_total_qps > 0.0) {
    botnet.attack_by_site_into(slots, attack_total_qps, out.attack_qps);
  } else {
    std::fill(out.attack_qps.begin(), out.attack_qps.end(), 0.0);
  }
  legit.legit_by_site_into(slots, legit_total_qps, out.legit_qps);
  out.unrouted_attack = out.attack_qps[site_count];
  out.unrouted_legit = out.legit_qps[site_count];
  out.attack_qps[site_count] = 0.0;
  out.legit_qps[site_count] = 0.0;
}

double site_uplink_gbps(const anycast::AnycastSite& site, double offered_qps,
                        double query_payload_bytes,
                        double response_payload_bytes,
                        double response_suppression) {
  const double ingress_bps =
      offered_qps *
      static_cast<double>(net::wire_bytes(
          static_cast<std::size_t>(query_payload_bytes))) *
      8.0;
  const double served = std::min(offered_qps, site.spec().capacity_qps);
  const double egress_bps =
      served * (1.0 - std::clamp(response_suppression, 0.0, 1.0)) *
      static_cast<double>(net::wire_bytes(
          static_cast<std::size_t>(response_payload_bytes))) *
      8.0;
  return (ingress_bps + egress_bps) / 1e9;
}

}  // namespace rootstress::sim
