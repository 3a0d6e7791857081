#include "anycast/deployment.h"

#include <algorithm>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "obs/runtime.h"
#include "util/logging.h"
#include "util/rng.h"

namespace rootstress::anycast {

namespace {

/// Resolves the location/region of a spec, from the geo registry when the
/// spec does not carry explicit coordinates.
void resolve_location(SiteSpec& spec) {
  if (spec.location.has_value() && !spec.region.empty()) return;
  const auto loc = net::find_location(spec.code);
  if (!loc) {
    throw std::invalid_argument("unknown site code: " + spec.code);
  }
  if (!spec.location) spec.location = loc->point;
  if (spec.region.empty()) spec.region = loc->region;
}

/// The .nl TLD anycast service: two sites co-located with root letters
/// (the collateral-damage victims of Fig 15) plus two standalone sites.
std::vector<SiteSpec> nl_sites() {
  auto mk = [](const char* code, const char* facility) {
    SiteSpec s;
    s.code = code;
    s.servers = 2;
    s.capacity_qps = 200e3;
    s.buffer_packets = 220e3;
    s.facility = facility;
    s.peer_stubs = 2;
    return s;
  };
  // The two co-located sites sit beside tenants that absorb the whole
  // event (B-Root's unicast site; H-Root's backup), so the uplink stays
  // saturated for the full event windows as in Fig 15.
  return {mk("LAX", "LAX-US-DC"), mk("SAN", "SAN-US-DC"), mk("IAD", ""),
          mk("GRU", "")};
}

/// Deterministic CDN-style letter table for the scale family: pseudo-coded
/// sites with explicit coordinates sampled from the geo registry, so
/// resolve_location never consults the registry for them and codes stay
/// short enough for packed site keys. The leading global_fraction of each
/// service's sites announce globally; the rest are BGP-scoped.
std::vector<LetterConfig> synthetic_letter_table(const SyntheticDeployment& syn,
                                                 std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5ca1ab1e);
  const auto locations = net::all_locations();
  std::vector<LetterConfig> table;
  for (int s = 0; s < syn.services; ++s) {
    LetterConfig cfg;
    cfg.letter = static_cast<char>('A' + s);
    cfg.operator_name = "synthetic";
    cfg.attacked = true;
    cfg.rssac_reporting = false;
    cfg.default_policy = StressPolicy::absorber();
    cfg.reported_sites = syn.sites_per_service;
    cfg.reported_global = std::min(
        syn.sites_per_service,
        std::max(1, static_cast<int>(syn.global_fraction *
                                         syn.sites_per_service + 0.5)));
    cfg.reported_local = syn.sites_per_service - cfg.reported_global;
    for (int i = 0; i < syn.sites_per_service; ++i) {
      const net::Location& loc = locations[rng.below(locations.size())];
      SiteSpec spec;
      char code[16];  // room for any int, so no id is ever truncated
      std::snprintf(code, sizeof(code), "Z%c%04d", cfg.letter, i);
      spec.code = code;
      spec.global = i < cfg.reported_global;
      spec.capacity_qps = syn.site_capacity_qps;
      spec.buffer_packets = syn.site_capacity_qps * 1.2;
      spec.peer_stubs = syn.peer_stubs_per_site;
      spec.location = loc.point;
      spec.region = loc.region;
      cfg.sites.push_back(std::move(spec));
    }
    table.push_back(std::move(cfg));
  }
  return table;
}

}  // namespace

RootDeployment::RootDeployment(const Config& config) {
  util::Rng rng(config.seed);
  bgp::TopologyConfig topo_cfg = config.topology;
  topo_cfg.seed = config.seed ^ 0x70706f;
  topology_ = bgp::AsTopology::synthesize(topo_cfg);
  letters_ = config.synthetic.has_value()
                 ? synthetic_letter_table(*config.synthetic,
                                          config.seed ^ 0x1e77e5)
                 : root_letter_table(config.seed ^ 0x1e77e5);
  add_default_facilities(facilities_);

  const auto stubs = topology_.stub_indices();
  std::uint32_t next_asn = 64000;

  // Instantiate the sites of one service and wire them into the topology.
  auto build_service = [&](char letter, int letter_index,
                           std::vector<SiteSpec> specs,
                           const StressPolicy& policy,
                           bool primary_backup) -> ServiceInfo {
    ServiceInfo svc;
    svc.letter = letter;
    svc.letter_index = letter_index;
    std::vector<bgp::AnycastOrigin> origins;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      SiteSpec spec = std::move(specs[i]);
      resolve_location(spec);
      spec.capacity_qps *= config.capacity_scale;
      const int facility =
          spec.facility.empty()
              ? -1
              : facilities_.add(spec.facility,
                                config.default_facility_uplink_gbps);
      const net::Asn asn(next_asn++);
      const int host_as = topology_.add_edge_as(
          asn, spec.region, *spec.location,
          spec.hub ? 4 : (spec.global ? 3 : 1), rng);
      if (spec.hub) {
        // Hub metros buy transit from tier-1s directly and peer broadly
        // at the local IXP (AMS-IX-style): regional transit networks get
        // one-hop peer routes here, so displaced catchments gravitate to
        // the hub, as the paper observes for K-AMS (Fig 10).
        const std::span<const int> tier1 = topology_.tier1_indices();
        for (int t = 0; t < 2 && !tier1.empty(); ++t) {
          topology_.add_transit(tier1[rng.below(tier1.size())], host_as);
        }
        for (const int t2 : topology_.tier2_in_region(spec.region)) {
          topology_.add_peering(host_as, t2);
        }
      }
      // IXP-style direct peerings with same-region stubs: these networks
      // keep routing to the site across partial withdrawals.
      int peered = 0;
      for (int attempt = 0; attempt < spec.peer_stubs * 8 && peered < spec.peer_stubs;
           ++attempt) {
        const int stub = stubs[rng.below(stubs.size())];
        if (topology_.info(stub).region == spec.region) {
          topology_.add_peering(host_as, stub);
          ++peered;
        }
      }
      const int site_id = static_cast<int>(sites_.size());
      const net::GeoPoint location = *spec.location;
      const bool global = spec.global;
      const StressPolicy site_policy = config.force_policy.has_value()
                                           ? *config.force_policy
                                           : spec.policy_override.value_or(policy);
      sites_.emplace_back(site_id, letter, std::move(spec), location, host_as,
                          facility, site_policy, rng);
      sites_.back().set_rrl_enabled(config.rrl_enabled);
      svc.site_ids.push_back(site_id);

      bgp::AnycastOrigin origin;
      origin.site_id = site_id;
      origin.host_as = asn;
      origin.local_only = !global;
      // H-Root's backup is announced only when the primary fails.
      origin.announced = !(primary_backup && i == 1);
      if (!origin.announced) {
        sites_.back().set_scope(SiteScope::kDown);
      } else if (origin.local_only) {
        sites_.back().set_scope(SiteScope::kLocalOnly);
      }
      origins.push_back(origin);
    }
    // Prefixes are registered after all services are built (routing_ is
    // created once the topology stops changing); stash origins for now.
    pending_origins_.push_back(std::move(origins));
    return svc;
  };

  for (std::size_t li = 0; li < letters_.size(); ++li) {
    LetterConfig& cfg = letters_[li];
    services_.push_back(build_service(cfg.letter, static_cast<int>(li),
                                      cfg.sites, cfg.default_policy,
                                      cfg.primary_backup));
  }
  if (config.include_nl && !config.synthetic.has_value()) {
    services_.push_back(build_service('N', -1, nl_sites(),
                                      StressPolicy::absorber(), false));
  }

  routing_ = std::make_unique<bgp::AnycastRouting>(topology_);
  for (std::size_t s = 0; s < services_.size(); ++s) {
    services_[s].prefix = routing_->register_prefix(
        std::string(1, services_[s].letter), std::move(pending_origins_[s]));
  }
  pending_origins_.clear();
  // Point the site_of() SoA mirror's unreachable entries at the sink lane
  // right past the last site: the fluid kernels aggregate branch-free.
  routing_->set_unrouted_slot(static_cast<std::int32_t>(sites_.size()));
  RS_LOG_INFO << "deployment: " << topology_.as_count() << " ASes, "
              << sites_.size() << " sites, " << services_.size()
              << " services";
}

const ServiceInfo& RootDeployment::service(char letter) const {
  for (const auto& svc : services_) {
    if (svc.letter == letter) return svc;
  }
  throw std::out_of_range(std::string("no such service: ") + letter);
}

std::optional<int> RootDeployment::find_site(char letter,
                                             std::string_view code) const {
  for (const auto& site : sites_) {
    if (site.letter() == letter && site.code() == code) return site.site_id();
  }
  return std::nullopt;
}

std::vector<bgp::RouteChange> RootDeployment::apply_scope(int site_id,
                                                          SiteScope scope,
                                                          net::SimTime now) {
  AnycastSite& s = site(site_id);
  if (!s.transition_scope(scope, now)) return {};
  const ServiceInfo& svc = service(s.letter());
  const bool announced = scope != SiteScope::kDown;
  const bool local_only = scope == SiteScope::kLocalOnly;
  obs::PhaseProfiler::Scope profile(
      obs_ != nullptr ? &obs_->profiler() : nullptr, "bgp-convergence");
  return routing_->set_origin_state(svc.prefix, site_id, announced,
                                    local_only, now);
}

std::vector<bgp::RouteChange> RootDeployment::apply_prepend(int site_id,
                                                            int prepend,
                                                            net::SimTime now) {
  const AnycastSite& s = site(site_id);
  const ServiceInfo& svc = service(s.letter());
  obs::PhaseProfiler::Scope profile(
      obs_ != nullptr ? &obs_->profiler() : nullptr, "bgp-convergence");
  return routing_->set_prepend(svc.prefix, site_id, prepend, now);
}

void RootDeployment::attach_obs(obs::Runtime* obs) {
  obs_ = obs;
  routing_->attach_obs(obs);
  for (auto& site : sites_) {
    SiteTelemetry telemetry;
    if (obs != nullptr) {
      telemetry.runtime = obs;
      const obs::Labels labels{{"letter", std::string(1, site.letter())}};
      auto& metrics = obs->metrics();
      telemetry.withdrawals = &metrics.counter("site.withdrawals", labels);
      telemetry.restores = &metrics.counter("site.restores", labels);
      telemetry.overload_onsets =
          &metrics.counter("site.overload_onsets", labels);
      telemetry.queue = make_queue_instruments(metrics, site.letter());
    }
    site.attach_obs(telemetry);
  }
}

}  // namespace rootstress::anycast
