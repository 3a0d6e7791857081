#include "bgp/topology.h"

#include <gtest/gtest.h>

#include <queue>
#include <stdexcept>
#include <vector>


namespace rootstress::bgp {
namespace {

TEST(Topology, ManualConstruction) {
  AsTopology topo;
  const int a = topo.add_as({net::Asn(1), AsTier::kTier1, {0, 0}, "EU"});
  const int b = topo.add_as({net::Asn(2), AsTier::kStub, {1, 1}, "EU"});
  topo.add_transit(a, b);
  EXPECT_EQ(topo.as_count(), 2);
  ASSERT_EQ(topo.links(a).size(), 1u);
  EXPECT_EQ(topo.links(a)[0].neighbor, b);
  EXPECT_EQ(topo.links(a)[0].rel, Rel::kCustomer);
  EXPECT_EQ(topo.links(b)[0].rel, Rel::kProvider);
}

TEST(Topology, PeeringIsSymmetric) {
  AsTopology topo;
  const int a = topo.add_as({net::Asn(1), AsTier::kTier2, {0, 0}, "EU"});
  const int b = topo.add_as({net::Asn(2), AsTier::kTier2, {1, 1}, "EU"});
  topo.add_peering(a, b);
  EXPECT_EQ(topo.links(a)[0].rel, Rel::kPeer);
  EXPECT_EQ(topo.links(b)[0].rel, Rel::kPeer);
}

TEST(Topology, IndexOf) {
  AsTopology topo;
  topo.add_as({net::Asn(77), AsTier::kStub, {0, 0}, "NA"});
  EXPECT_EQ(topo.index_of(net::Asn(77)), 0);
  EXPECT_FALSE(topo.index_of(net::Asn(78)).has_value());
}

class SynthesizedTopology : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  TopologyConfig config() const {
    TopologyConfig c;
    c.stub_count = 400;
    c.seed = GetParam();
    return c;
  }
};

TEST_P(SynthesizedTopology, HasExpectedShape) {
  const auto topo = AsTopology::synthesize(config());
  int tier1 = 0, tier2 = 0, stubs = 0;
  for (int i = 0; i < topo.as_count(); ++i) {
    switch (topo.info(i).tier) {
      case AsTier::kTier1: ++tier1; break;
      case AsTier::kTier2: ++tier2; break;
      case AsTier::kStub: ++stubs; break;
    }
  }
  EXPECT_EQ(tier1, 10);
  EXPECT_EQ(tier2, 7 * 12);  // 7 regions x 12
  EXPECT_EQ(stubs, 400);
}

TEST_P(SynthesizedTopology, EveryStubHasAProvider) {
  const auto topo = AsTopology::synthesize(config());
  for (int i = 0; i < topo.as_count(); ++i) {
    if (topo.info(i).tier != AsTier::kStub) continue;
    bool has_provider = false;
    for (const Link& link : topo.links(i)) {
      has_provider |= link.rel == Rel::kProvider;
    }
    EXPECT_TRUE(has_provider) << "stub " << i;
  }
}

TEST_P(SynthesizedTopology, FullyConnectedUndirected) {
  const auto topo = AsTopology::synthesize(config());
  std::vector<bool> seen(static_cast<std::size_t>(topo.as_count()), false);
  std::queue<int> frontier;
  frontier.push(0);
  seen[0] = true;
  int reached = 0;
  while (!frontier.empty()) {
    const int u = frontier.front();
    frontier.pop();
    ++reached;
    for (const Link& link : topo.links(u)) {
      if (!seen[static_cast<std::size_t>(link.neighbor)]) {
        seen[static_cast<std::size_t>(link.neighbor)] = true;
        frontier.push(link.neighbor);
      }
    }
  }
  EXPECT_EQ(reached, topo.as_count());
}

TEST_P(SynthesizedTopology, DeterministicForSeed) {
  const auto a = AsTopology::synthesize(config());
  const auto b = AsTopology::synthesize(config());
  ASSERT_EQ(a.as_count(), b.as_count());
  EXPECT_EQ(a.link_entry_count(), b.link_entry_count());
  for (int i = 0; i < a.as_count(); ++i) {
    EXPECT_EQ(a.info(i).asn, b.info(i).asn);
    EXPECT_EQ(a.info(i).region, b.info(i).region);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesizedTopology,
                         ::testing::Values(1, 42, 2015));

TEST(Topology, AddEdgeAsAttachesRegionally) {
  TopologyConfig c;
  c.stub_count = 100;
  auto topo = AsTopology::synthesize(c);
  util::Rng rng(5);
  const int idx =
      topo.add_edge_as(net::Asn(64001), "EU", net::GeoPoint{52, 5}, 3, rng);
  EXPECT_EQ(topo.info(idx).region, "EU");
  int providers = 0;
  for (const Link& link : topo.links(idx)) {
    if (link.rel == Rel::kProvider) {
      ++providers;
      EXPECT_EQ(topo.info(link.neighbor).region, "EU");
      EXPECT_EQ(topo.info(link.neighbor).tier, AsTier::kTier2);
    }
  }
  EXPECT_EQ(providers, 3);
}

TEST(Topology, AddEdgeAsRejectsDuplicateAsn) {
  TopologyConfig c;
  c.stub_count = 10;
  auto topo = AsTopology::synthesize(c);
  util::Rng rng(5);
  topo.add_edge_as(net::Asn(64001), "EU", net::GeoPoint{52, 5}, 1, rng);
  EXPECT_THROW(
      topo.add_edge_as(net::Asn(64001), "EU", net::GeoPoint{52, 5}, 1, rng),
      std::invalid_argument);
}

TEST(Topology, StubAndTier2Queries) {
  TopologyConfig c;
  c.stub_count = 50;
  const auto topo = AsTopology::synthesize(c);
  EXPECT_EQ(topo.stub_indices().size(), 50u);
  EXPECT_EQ(topo.tier2_in_region("EU").size(), 12u);
  EXPECT_TRUE(topo.tier2_in_region("XX").empty());
}

// The three relation spans are links() split by relation, each in
// insertion order, however transit, peering and edge-AS additions
// interleave; every link carries its neighbour's ASN.
TEST(Topology, RelationSpansPartitionLinksInInsertionOrder) {
  TopologyConfig c;
  c.stub_count = 60;
  c.seed = 3;
  AsTopology topo = AsTopology::synthesize(c);
  util::Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    const int a = static_cast<int>(rng.below(topo.as_count()));
    const int b = static_cast<int>(rng.below(topo.as_count()));
    switch (rng.below(3)) {
      case 0:
        if (a != b) topo.add_transit(a, b);
        break;
      case 1:
        if (a != b) topo.add_peering(a, b);
        break;
      default:
        topo.add_edge_as(net::Asn(90000 + static_cast<std::uint32_t>(i)),
                         i % 2 == 0 ? "EU" : "AS", net::GeoPoint{0, 0}, 2,
                         rng);
        break;
    }
  }
  for (int u = 0; u < topo.as_count(); ++u) {
    std::vector<const Link*> by_rel[3];
    for (const Link& link : topo.links(u)) {
      by_rel[static_cast<int>(link.rel)].push_back(&link);
      EXPECT_EQ(link.asn, topo.info(link.neighbor).asn);
    }
    const std::span<const Link> spans[3] = {topo.providers(u), topo.peers(u),
                                            topo.customers(u)};
    std::size_t total = 0;
    for (int r = 0; r < 3; ++r) {
      ASSERT_EQ(spans[r].size(), by_rel[r].size()) << "AS " << u;
      for (std::size_t i = 0; i < spans[r].size(); ++i) {
        EXPECT_EQ(&spans[r][i], by_rel[r][i]) << "AS " << u;
      }
      total += spans[r].size();
    }
    EXPECT_EQ(total, topo.links(u).size());
  }
}

TEST(Topology, RelationSpansKeepInsertionOrderWithinAGroup) {
  AsTopology topo;
  for (std::uint32_t asn = 1; asn <= 7; ++asn) {
    topo.add_as({net::Asn(asn), AsTier::kTier2, {0, 0}, "EU"});
  }
  topo.add_transit(0, 3);  // 3: provider 0
  topo.add_peering(3, 4);  // 3: peer 4
  topo.add_transit(3, 5);  // 3: customer 5
  topo.add_transit(1, 3);  // 3: provider 1
  topo.add_peering(6, 3);  // 3: peer 6
  topo.add_transit(3, 2);  // 3: customer 2
  const auto neighbors = [](std::span<const Link> group) {
    std::vector<int> out;
    for (const Link& link : group) out.push_back(link.neighbor);
    return out;
  };
  EXPECT_EQ(neighbors(topo.providers(3)), (std::vector<int>{0, 1}));
  EXPECT_EQ(neighbors(topo.peers(3)), (std::vector<int>{4, 6}));
  EXPECT_EQ(neighbors(topo.customers(3)), (std::vector<int>{5, 2}));
  EXPECT_EQ(neighbors(topo.links(3)), (std::vector<int>{0, 1, 4, 6, 5, 2}));
}

TEST(Topology, IndexOfMatchesALinearScan) {
  TopologyConfig c;
  c.stub_count = 200;
  AsTopology topo = AsTopology::synthesize(c);
  util::Rng rng(9);
  // Edge ASes arrive with ASNs above and below the synthesized range.
  for (std::uint32_t asn : {64010u, 64003u, 50u, 70000u, 99u}) {
    topo.add_edge_as(net::Asn(asn), "NA", net::GeoPoint{0, 0}, 2, rng);
  }
  for (int i = 0; i < topo.as_count(); ++i) {
    const net::Asn asn = topo.info(i).asn;
    int scanned = -1;
    for (int j = 0; j < topo.as_count(); ++j) {
      if (topo.info(j).asn == asn) scanned = j;
    }
    EXPECT_EQ(topo.index_of(asn), scanned);
  }
  for (std::uint32_t unknown : {0u, 1u, 98u, 64000u, 64004u, 4294967295u}) {
    EXPECT_FALSE(topo.index_of(net::Asn(unknown)).has_value()) << unknown;
  }
}

TEST(Topology, TierListsMatchAScanAfterMoreAsesArrive) {
  TopologyConfig c;
  c.stub_count = 30;
  AsTopology topo = AsTopology::synthesize(c);
  topo.add_as({net::Asn(5000), AsTier::kTier2, {0, 0}, "EU"});
  topo.add_as({net::Asn(5001), AsTier::kTier2, {0, 0}, "XX"});
  topo.add_as({net::Asn(5002), AsTier::kTier1, {0, 0}, "NA"});
  topo.add_as({net::Asn(5003), AsTier::kTier2, {0, 0}, "XX"});
  for (const char* region : {"EU", "NA", "AS", "SA", "OC", "ME", "AF", "XX",
                             "YY"}) {
    std::vector<int> scanned;
    for (int i = 0; i < topo.as_count(); ++i) {
      if (topo.info(i).tier == AsTier::kTier2 &&
          topo.info(i).region == region) {
        scanned.push_back(i);
      }
    }
    const auto listed = topo.tier2_in_region(region);
    EXPECT_EQ(std::vector<int>(listed.begin(), listed.end()), scanned)
        << region;
  }
  std::vector<int> tier1;
  for (int i = 0; i < topo.as_count(); ++i) {
    if (topo.info(i).tier == AsTier::kTier1) tier1.push_back(i);
  }
  const auto listed = topo.tier1_indices();
  EXPECT_EQ(std::vector<int>(listed.begin(), listed.end()), tier1);
}

// Digests of every synthesized AS's location and region, recorded when
// locations were reservoir-sampled over the whole registry rather than
// over per-region lists: the same draws must pick the same locations.
TEST(Topology, SynthesizedLocationsAreUnchanged) {
  const auto digest = [](std::uint64_t seed) {
    TopologyConfig c;
    c.seed = seed;
    const AsTopology topo = AsTopology::synthesize(c);
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a
    const auto mix = [&h](const void* data, std::size_t size) {
      const auto* bytes = static_cast<const unsigned char*>(data);
      for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
      }
    };
    for (int i = 0; i < topo.as_count(); ++i) {
      const AsInfo& info = topo.info(i);
      mix(&info.location.lat, sizeof(double));
      mix(&info.location.lon, sizeof(double));
      mix(info.region.data(), info.region.size());
    }
    return h;
  };
  EXPECT_EQ(digest(1), 0x33d4a1e8ff987d16ull);
  EXPECT_EQ(digest(2015), 0xb45a1a3b71bf0d4eull);
}

TEST(Topology, AddAsRejectsDuplicateAsn) {
  AsTopology topo;
  topo.add_as({net::Asn(7), AsTier::kStub, {0, 0}, "EU"});
  EXPECT_THROW(topo.add_as({net::Asn(7), AsTier::kTier2, {0, 0}, "EU"}),
               std::invalid_argument);
  // The refused AS left no trace.
  EXPECT_EQ(topo.as_count(), 1);
  EXPECT_TRUE(topo.tier2_in_region("EU").empty());
}

TEST(Topology, LinksRejectUnknownIndicesAndSelfLinks) {
  AsTopology topo;
  const int a = topo.add_as({net::Asn(1), AsTier::kTier1, {0, 0}, "EU"});
  const int b = topo.add_as({net::Asn(2), AsTier::kStub, {0, 0}, "EU"});
  EXPECT_THROW(topo.add_transit(a, 2), std::invalid_argument);
  EXPECT_THROW(topo.add_transit(-1, b), std::invalid_argument);
  EXPECT_THROW(topo.add_transit(a, a), std::invalid_argument);
  EXPECT_THROW(topo.add_peering(b, 5), std::invalid_argument);
  EXPECT_THROW(topo.add_peering(-3, a), std::invalid_argument);
  EXPECT_THROW(topo.add_peering(b, b), std::invalid_argument);
  EXPECT_EQ(topo.link_entry_count(), 0u);
  topo.add_transit(a, b);
  EXPECT_EQ(topo.link_entry_count(), 2u);
}

}  // namespace
}  // namespace rootstress::bgp
