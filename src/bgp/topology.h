// AS-level Internet topology with business relationships.
//
// The simulator routes over a synthesized provider/peer/customer graph:
// a tier-1 clique, regional tier-2 transit ASes, and stub ASes (eyeball
// networks hosting vantage points, plus dedicated host ASes for anycast
// sites). Region-aware attachment makes catchments geographically
// coherent, which the paper's RTT analyses depend on.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bgp/route.h"
#include "net/asn.h"
#include "net/geo.h"
#include "util/rng.h"

namespace rootstress::bgp {

/// Role of an AS in the synthesized hierarchy.
enum class AsTier : std::uint8_t { kTier1, kTier2, kStub };

/// One adjacency from the owning AS.
struct Link {
  int neighbor = -1;  ///< dense index of the neighbor AS
  Rel rel = Rel::kPeer;  ///< what the neighbor is *to me*
  net::Asn asn{};  ///< the neighbor's ASN (what a route learned over it records)
};

/// Static AS attributes.
struct AsInfo {
  net::Asn asn{};
  AsTier tier = AsTier::kStub;
  net::GeoPoint location{};
  std::string region;  ///< "EU", "NA", ...
};

/// Parameters for topology synthesis.
struct TopologyConfig {
  int tier1_count = 10;
  int tier2_per_region = 12;
  int stub_count = 1200;
  int providers_per_tier2 = 3;   ///< tier-1 uplinks per tier-2
  int peers_per_tier2 = 4;       ///< same-region tier-2 peerings
  int providers_per_stub = 2;    ///< tier-2 uplinks per stub
  /// Fraction of a stub's uplinks forced into the stub's own region.
  double regional_attachment = 0.85;
  std::uint64_t seed = 1;
};

/// The AS graph. ASes are addressed by dense index internally; the
/// Asn <-> index mapping is exposed for interfaces that speak ASNs.
///
/// Each AS's links are stored grouped by relation — providers, then
/// peers, then customers, each group in insertion order — because every
/// routing stage walks exactly one group. An ASN index and the tier-1 and
/// per-region tier-2 lists are kept up to date by add_as.
class AsTopology {
 public:
  AsTopology() = default;

  /// Adds an AS; returns its dense index. Throws std::invalid_argument
  /// when the ASN is already present.
  int add_as(AsInfo info);

  /// Adds a provider->customer transit edge (by dense index). Throws
  /// std::invalid_argument on an unknown index or a self-link.
  void add_transit(int provider, int customer);

  /// Adds a settlement-free peering (by dense index). Throws
  /// std::invalid_argument on an unknown index or a self-link.
  void add_peering(int a, int b);

  int as_count() const noexcept { return static_cast<int>(infos_.size()); }
  const AsInfo& info(int index) const noexcept { return infos_[index]; }

  /// All links of `index`: providers, then peers, then customers.
  std::span<const Link> links(int index) const noexcept {
    return adjacency_[index].links;
  }
  /// The parts of links(index) by relation.
  std::span<const Link> providers(int index) const noexcept {
    const Adjacency& a = adjacency_[index];
    return std::span<const Link>(a.links).first(a.peers_begin);
  }
  std::span<const Link> peers(int index) const noexcept {
    const Adjacency& a = adjacency_[index];
    return std::span<const Link>(a.links).subspan(
        a.peers_begin, a.customers_begin - a.peers_begin);
  }
  std::span<const Link> customers(int index) const noexcept {
    const Adjacency& a = adjacency_[index];
    return std::span<const Link>(a.links).subspan(a.customers_begin);
  }

  /// Dense index for an ASN; nullopt if unknown.
  std::optional<int> index_of(net::Asn asn) const noexcept;

  /// Total directed link entries (2x the undirected edge count).
  std::size_t link_entry_count() const noexcept;

  /// All stub-tier AS indices (candidate VP homes).
  std::vector<int> stub_indices() const;

  /// All tier-1 AS indices, ascending. Valid until the next add_as.
  std::span<const int> tier1_indices() const noexcept { return tier1_; }

  /// Tier-2 AS indices in `region`, ascending (candidate site upstreams).
  /// Valid until the next add_as.
  std::span<const int> tier2_in_region(std::string_view region) const noexcept;

  /// Synthesizes a hierarchical, region-structured topology.
  static AsTopology synthesize(const TopologyConfig& config);

  /// Adds a multihomed edge AS in `region` near `location` (used for
  /// anycast site host ASes); returns its dense index. The AS is attached
  /// to `upstreams` same-region tier-2 providers (fewer if the region is
  /// small).
  int add_edge_as(net::Asn asn, const std::string& region,
                  net::GeoPoint location, int upstreams, util::Rng& rng);

 private:
  struct Adjacency {
    std::vector<Link> links;  ///< providers, peers, customers
    std::size_t peers_begin = 0;
    std::size_t customers_begin = 0;
  };
  struct RegionTier2 {
    std::string region;
    std::vector<int> ases;
  };

  void check_link(int a, int b) const;

  std::vector<AsInfo> infos_;
  std::vector<Adjacency> adjacency_;
  /// (ASN, dense index), sorted by ASN.
  std::vector<std::pair<net::Asn, int>> by_asn_;
  std::vector<int> tier1_;
  std::vector<RegionTier2> tier2_by_region_;
};

}  // namespace rootstress::bgp
