#include "bgp/topology.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace rootstress::bgp {

namespace {
// Region weights for stub placement: roughly where the Internet's edge
// networks (and RIPE Atlas probes) are. Europe is deliberately heavy;
// the Atlas population layer adds further bias on top.
struct RegionWeight {
  const char* region;
  double weight;
};
constexpr RegionWeight kRegionWeights[] = {
    {"EU", 0.40}, {"NA", 0.25}, {"AS", 0.15}, {"SA", 0.07},
    {"OC", 0.05}, {"ME", 0.04}, {"AF", 0.04},
};

/// The registry's locations grouped by region, each group in registry
/// order. Built once; the registry never changes.
struct RegionLocations {
  std::string_view region;
  std::vector<const net::Location*> locations;
};

const std::vector<RegionLocations>& locations_by_region() {
  static const std::vector<RegionLocations> table = [] {
    std::vector<RegionLocations> out;
    for (const net::Location& loc : net::all_locations()) {
      auto it = std::find_if(out.begin(), out.end(), [&](const auto& r) {
        return r.region == loc.region;
      });
      if (it == out.end()) {
        out.push_back(RegionLocations{loc.region, {}});
        it = out.end() - 1;
      }
      it->locations.push_back(&loc);
    }
    return out;
  }();
  return table;
}

const net::Location& random_location_in(std::string_view region,
                                        util::Rng& rng) {
  const net::Location* chosen = &net::all_locations()[0];
  for (const RegionLocations& group : locations_by_region()) {
    if (group.region != region) continue;
    // Reservoir-sample a location from the region.
    std::size_t seen = 0;
    for (const net::Location* loc : group.locations) {
      ++seen;
      if (rng.below(seen) == 0) chosen = loc;
    }
    break;
  }
  return *chosen;
}

bool asn_less(const std::pair<net::Asn, int>& entry, net::Asn asn) {
  return entry.first < asn;
}
}  // namespace

int AsTopology::add_as(AsInfo info) {
  const auto at =
      std::lower_bound(by_asn_.begin(), by_asn_.end(), info.asn, asn_less);
  if (at != by_asn_.end() && at->first == info.asn) {
    throw std::invalid_argument("duplicate ASN " +
                                std::to_string(info.asn.value));
  }
  const int idx = as_count();
  by_asn_.insert(at, {info.asn, idx});
  if (info.tier == AsTier::kTier1) tier1_.push_back(idx);
  if (info.tier == AsTier::kTier2) {
    auto it = std::find_if(
        tier2_by_region_.begin(), tier2_by_region_.end(),
        [&](const RegionTier2& r) { return r.region == info.region; });
    if (it == tier2_by_region_.end()) {
      tier2_by_region_.push_back(RegionTier2{info.region, {}});
      it = tier2_by_region_.end() - 1;
    }
    it->ases.push_back(idx);
  }
  infos_.push_back(std::move(info));
  adjacency_.emplace_back();
  return idx;
}

void AsTopology::check_link(int a, int b) const {
  if (a < 0 || a >= as_count() || b < 0 || b >= as_count()) {
    throw std::invalid_argument("link to an unknown AS index");
  }
  if (a == b) throw std::invalid_argument("self-link on AS index " +
                                          std::to_string(a));
}

void AsTopology::add_transit(int provider, int customer) {
  check_link(provider, customer);
  // Customers are the last group; a provider goes at the end of the first.
  Adjacency& up = adjacency_[provider];
  up.links.push_back(Link{customer, Rel::kCustomer, infos_[customer].asn});
  Adjacency& down = adjacency_[customer];
  down.links.insert(down.links.begin() + static_cast<std::ptrdiff_t>(
                                             down.peers_begin),
                    Link{provider, Rel::kProvider, infos_[provider].asn});
  ++down.peers_begin;
  ++down.customers_begin;
}

void AsTopology::add_peering(int a, int b) {
  check_link(a, b);
  const auto insert_peer = [this](int self, int other) {
    Adjacency& adj = adjacency_[self];
    adj.links.insert(adj.links.begin() + static_cast<std::ptrdiff_t>(
                                             adj.customers_begin),
                     Link{other, Rel::kPeer, infos_[other].asn});
    ++adj.customers_begin;
  };
  insert_peer(a, b);
  insert_peer(b, a);
}

std::optional<int> AsTopology::index_of(net::Asn asn) const noexcept {
  const auto at =
      std::lower_bound(by_asn_.begin(), by_asn_.end(), asn, asn_less);
  if (at == by_asn_.end() || at->first != asn) return std::nullopt;
  return at->second;
}

std::size_t AsTopology::link_entry_count() const noexcept {
  std::size_t n = 0;
  for (const Adjacency& a : adjacency_) n += a.links.size();
  return n;
}

std::vector<int> AsTopology::stub_indices() const {
  std::vector<int> out;
  for (int i = 0; i < as_count(); ++i) {
    if (infos_[i].tier == AsTier::kStub) out.push_back(i);
  }
  return out;
}

std::span<const int> AsTopology::tier2_in_region(
    std::string_view region) const noexcept {
  for (const RegionTier2& r : tier2_by_region_) {
    if (r.region == region) return r.ases;
  }
  return {};
}

AsTopology AsTopology::synthesize(const TopologyConfig& config) {
  AsTopology topo;
  util::Rng rng(config.seed);
  std::uint32_t next_asn = 100;

  // Tier-1 clique, spread across major regions.
  std::vector<int> tier1;
  for (int i = 0; i < config.tier1_count; ++i) {
    const auto& rw = kRegionWeights[i % 3];  // EU/NA/AS backbone spread
    const auto& loc = random_location_in(rw.region, rng);
    tier1.push_back(topo.add_as(AsInfo{net::Asn(next_asn++), AsTier::kTier1,
                                       loc.point, rw.region}));
  }
  for (std::size_t i = 0; i < tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1.size(); ++j) {
      topo.add_peering(tier1[i], tier1[j]);
    }
  }

  // Regional tier-2 transit providers.
  for (const auto& rw : kRegionWeights) {
    for (int i = 0; i < config.tier2_per_region; ++i) {
      const auto& loc = random_location_in(rw.region, rng);
      const int idx = topo.add_as(AsInfo{net::Asn(next_asn++), AsTier::kTier2,
                                         loc.point, rw.region});
      // Uplinks to distinct tier-1s.
      std::unordered_set<int> chosen;
      while (static_cast<int>(chosen.size()) <
             std::min<int>(config.providers_per_tier2,
                           static_cast<int>(tier1.size()))) {
        chosen.insert(tier1[rng.below(tier1.size())]);
      }
      for (int provider : chosen) topo.add_transit(provider, idx);
    }
    // Same-region tier-2 peering mesh (sparse).
    const std::span<const int> regional = topo.tier2_in_region(rw.region);
    for (std::size_t i = 0; i < regional.size(); ++i) {
      for (int p = 0; p < config.peers_per_tier2; ++p) {
        const std::size_t j = rng.below(regional.size());
        if (j != i && j > i) topo.add_peering(regional[i], regional[j]);
      }
    }
  }

  // Stub (eyeball) ASes.
  std::vector<double> weights;
  for (const auto& rw : kRegionWeights) weights.push_back(rw.weight);
  for (int s = 0; s < config.stub_count; ++s) {
    const auto& rw = kRegionWeights[rng.weighted(weights)];
    const auto& loc = random_location_in(rw.region, rng);
    const int idx = topo.add_as(AsInfo{net::Asn(next_asn++), AsTier::kStub,
                                       loc.point, rw.region});
    std::unordered_set<int> chosen;
    for (int u = 0; u < config.providers_per_stub; ++u) {
      const bool regional = rng.chance(config.regional_attachment);
      std::span<const int> pool = topo.tier2_in_region(rw.region);
      if (!regional || pool.empty()) {
        const auto& other = kRegionWeights[rng.weighted(weights)];
        if (!topo.tier2_in_region(other.region).empty()) {
          pool = topo.tier2_in_region(other.region);
        }
      }
      if (pool.empty()) continue;
      chosen.insert(pool[rng.below(pool.size())]);
    }
    for (int provider : chosen) topo.add_transit(provider, idx);
  }
  return topo;
}

int AsTopology::add_edge_as(net::Asn asn, const std::string& region,
                            net::GeoPoint location, int upstreams,
                            util::Rng& rng) {
  const int idx = add_as(AsInfo{asn, AsTier::kStub, location, region});
  std::span<const int> pool = tier2_in_region(region);
  std::vector<int> any_tier2;
  if (pool.empty()) {
    // Fall back to any tier-2 (tiny custom topologies).
    for (int i = 0; i < as_count(); ++i) {
      if (infos_[i].tier == AsTier::kTier2) any_tier2.push_back(i);
    }
    pool = any_tier2;
  }
  if (pool.empty()) return idx;
  std::unordered_set<int> chosen;
  const int want = std::min<int>(upstreams, static_cast<int>(pool.size()));
  while (static_cast<int>(chosen.size()) < want) {
    chosen.insert(pool[rng.below(pool.size())]);
  }
  for (int provider : chosen) add_transit(provider, idx);
  return idx;
}

}  // namespace rootstress::bgp
