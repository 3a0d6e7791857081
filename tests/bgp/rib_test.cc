#include "bgp/rib.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <queue>
#include <span>
#include <vector>

#include "util/rng.h"

namespace rootstress::bgp {
namespace {

// A small reference topology:
//
//        T1a ==== T1b            (== peering)
//       /   \       \           .
//     T2a    T2b    T2c          (transit customers of tier-1s)
//     / \      \      \         .
//   S1   S2    S3     S4         (stubs)
//
// plus a T2a == T2b peering.
struct RefTopo {
  AsTopology topo;
  int t1a, t1b, t2a, t2b, t2c, s1, s2, s3, s4;

  RefTopo() {
    auto add = [this](std::uint32_t asn, AsTier tier) {
      return topo.add_as({net::Asn(asn), tier, {0, 0}, "EU"});
    };
    t1a = add(10, AsTier::kTier1);
    t1b = add(11, AsTier::kTier1);
    t2a = add(20, AsTier::kTier2);
    t2b = add(21, AsTier::kTier2);
    t2c = add(22, AsTier::kTier2);
    s1 = add(31, AsTier::kStub);
    s2 = add(32, AsTier::kStub);
    s3 = add(33, AsTier::kStub);
    s4 = add(34, AsTier::kStub);
    topo.add_peering(t1a, t1b);
    topo.add_transit(t1a, t2a);
    topo.add_transit(t1a, t2b);
    topo.add_transit(t1b, t2c);
    topo.add_peering(t2a, t2b);
    topo.add_transit(t2a, s1);
    topo.add_transit(t2a, s2);
    topo.add_transit(t2b, s3);
    topo.add_transit(t2c, s4);
  }

  AnycastOrigin origin_at(int site, net::Asn asn, bool local = false) const {
    return AnycastOrigin{site, asn, true, local};
  }
};

TEST(Rib, SingleOriginReachesEveryone) {
  RefTopo ref;
  const std::vector<AnycastOrigin> origins{
      ref.origin_at(0, net::Asn(31))};  // S1 hosts the site
  const auto routes = compute_routes(ref.topo, origins);
  for (int as = 0; as < ref.topo.as_count(); ++as) {
    EXPECT_TRUE(routes[static_cast<std::size_t>(as)].reachable()) << as;
    EXPECT_EQ(routes[static_cast<std::size_t>(as)].site_id, 0);
  }
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.s1)].cls, RouteClass::kOrigin);
  // Provider of the origin learns a customer route.
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.t2a)].cls,
            RouteClass::kCustomer);
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.t2a)].path_len, 1);
  // Sibling stub S2 goes down from T2a: provider route, 2 hops.
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.s2)].cls,
            RouteClass::kProvider);
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.s2)].path_len, 2);
  // T2b prefers its peering with T2a over transit through T1a.
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.t2b)].cls, RouteClass::kPeer);
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.t2b)].path_len, 2);
  // T1b: peer route via T1a (T1a has a customer route).
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.t1b)].cls, RouteClass::kPeer);
  // S4: provider chain through T2c <- T1b.
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.s4)].cls,
            RouteClass::kProvider);
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.s4)].path_len, 5);
}

TEST(Rib, CustomerBeatsPeerBeatsProvider) {
  RefTopo ref;
  // Two origins: one at S1 (customer cone of T2a), one at S3.
  const std::vector<AnycastOrigin> origins{ref.origin_at(0, net::Asn(31)),
                                           ref.origin_at(1, net::Asn(33))};
  const auto routes = compute_routes(ref.topo, origins);
  // T2a has a customer route to site 0 (S1) and only peer/provider paths
  // to site 1 -> must choose site 0.
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.t2a)].site_id, 0);
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.t2a)].cls,
            RouteClass::kCustomer);
  // T2b symmetrically chooses its own customer, site 1.
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.t2b)].site_id, 1);
}

TEST(Rib, WithdrawnOriginIgnored) {
  RefTopo ref;
  std::vector<AnycastOrigin> origins{ref.origin_at(0, net::Asn(31)),
                                     ref.origin_at(1, net::Asn(33))};
  origins[0].announced = false;
  const auto routes = compute_routes(ref.topo, origins);
  for (int as = 0; as < ref.topo.as_count(); ++as) {
    ASSERT_TRUE(routes[static_cast<std::size_t>(as)].reachable());
    EXPECT_EQ(routes[static_cast<std::size_t>(as)].site_id, 1) << as;
  }
}

TEST(Rib, NoOriginsNoRoutes) {
  RefTopo ref;
  const auto routes = compute_routes(ref.topo, {});
  for (const auto& route : routes) {
    EXPECT_FALSE(route.reachable());
  }
}

TEST(Rib, LocalOnlyScopesToNeighbors) {
  RefTopo ref;
  // S1 hosts a local site; S2 peers with S1 directly (IXP-style).
  ref.topo.add_peering(ref.s1, ref.s2);
  const std::vector<AnycastOrigin> origins{
      ref.origin_at(0, net::Asn(31), /*local=*/true)};
  const auto routes = compute_routes(ref.topo, origins);
  // The host and its direct peer see it.
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.s1)].cls, RouteClass::kOrigin);
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.s2)].cls, RouteClass::kPeer);
  // The transit provider does NOT receive a local announcement, and
  // nobody else learns the route.
  EXPECT_FALSE(routes[static_cast<std::size_t>(ref.t2a)].reachable());
  EXPECT_FALSE(routes[static_cast<std::size_t>(ref.s3)].reachable());
  EXPECT_FALSE(routes[static_cast<std::size_t>(ref.t1a)].reachable());
}

TEST(Rib, LocalSiteCapturesPeersFromGlobalSite) {
  RefTopo ref;
  ref.topo.add_peering(ref.s1, ref.s2);
  // Global site at S4, local site at S1.
  const std::vector<AnycastOrigin> origins{
      ref.origin_at(0, net::Asn(34)),
      ref.origin_at(1, net::Asn(31), /*local=*/true)};
  const auto routes = compute_routes(ref.topo, origins);
  // S2 prefers the local site's peer route over the provider path to S4.
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.s2)].site_id, 1);
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.s2)].cls, RouteClass::kPeer);
  // Everyone else uses the global site.
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.s3)].site_id, 0);
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.t2a)].site_id, 0);
  // ...and the local route is not re-exported through S2.
  EXPECT_EQ(routes[static_cast<std::size_t>(ref.t2a)].cls,
            RouteClass::kProvider);
}

TEST(Rib, DeterministicTieBreak) {
  // Two origins equidistant from a client; the lower via-ASN must win,
  // and repeatedly.
  AsTopology topo;
  const int t2 = topo.add_as({net::Asn(20), AsTier::kTier2, {0, 0}, "EU"});
  const int a = topo.add_as({net::Asn(31), AsTier::kStub, {0, 0}, "EU"});
  const int b = topo.add_as({net::Asn(32), AsTier::kStub, {0, 0}, "EU"});
  const int c = topo.add_as({net::Asn(33), AsTier::kStub, {0, 0}, "EU"});
  topo.add_transit(t2, a);
  topo.add_transit(t2, b);
  topo.add_transit(t2, c);
  const std::vector<AnycastOrigin> origins{
      AnycastOrigin{5, net::Asn(32), true, false},
      AnycastOrigin{6, net::Asn(31), true, false}};
  const auto first = compute_routes(topo, origins);
  // c reaches both sites at path length 2 via t2; t2 itself picks between
  // two customer routes of length 1: via ASN 31 < 32 -> site 6.
  EXPECT_EQ(first[static_cast<std::size_t>(t2)].site_id, 6);
  EXPECT_EQ(first[static_cast<std::size_t>(c)].site_id, 6);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(compute_routes(topo, origins), first);
  }
}

// Property test over a synthesized topology: follow each AS's `via`
// pointer; the chain must shorten path_len by one per hop, keep the same
// site, and respect valley-free class transitions.
class RibProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RibProperty, ViaChainsAreConsistentAndValleyFree) {
  TopologyConfig config;
  config.stub_count = 500;
  config.seed = GetParam();
  auto topo = AsTopology::synthesize(config);
  util::Rng rng(GetParam());
  std::vector<AnycastOrigin> origins;
  for (int i = 0; i < 12; ++i) {
    const net::Asn asn(70000 + static_cast<std::uint32_t>(i));
    topo.add_edge_as(asn, i % 2 == 0 ? "EU" : "NA", net::GeoPoint{0, 0}, 2,
                     rng);
    origins.push_back(AnycastOrigin{i, asn, true, i % 4 == 3});
  }
  const auto routes = compute_routes(topo, origins);

  int reachable = 0;
  for (int u = 0; u < topo.as_count(); ++u) {
    const RouteChoice& r = routes[static_cast<std::size_t>(u)];
    if (!r.reachable()) continue;
    ++reachable;
    if (r.cls == RouteClass::kOrigin) {
      EXPECT_EQ(r.path_len, 0);
      continue;
    }
    const auto next = topo.index_of(r.via);
    ASSERT_TRUE(next.has_value());
    const RouteChoice& parent = routes[static_cast<std::size_t>(*next)];
    ASSERT_TRUE(parent.reachable()) << "via points at unrouted AS";
    EXPECT_EQ(parent.site_id, r.site_id);
    EXPECT_EQ(parent.path_len + 1, r.path_len);
    // The neighbor relationship must match the route class.
    Rel rel_to_next = Rel::kPeer;
    bool adjacent = false;
    for (const Link& link : topo.links(u)) {
      if (link.neighbor == *next) {
        rel_to_next = link.rel;
        adjacent = true;
        break;
      }
    }
    ASSERT_TRUE(adjacent) << "via is not a neighbor";
    switch (r.cls) {
      case RouteClass::kCustomer:
        EXPECT_EQ(rel_to_next, Rel::kCustomer);
        // Valley-free: below us the chain is customer/origin only.
        EXPECT_TRUE(parent.cls == RouteClass::kOrigin ||
                    parent.cls == RouteClass::kCustomer);
        break;
      case RouteClass::kPeer:
        EXPECT_EQ(rel_to_next, Rel::kPeer);
        EXPECT_TRUE(parent.cls == RouteClass::kOrigin ||
                    parent.cls == RouteClass::kCustomer);
        break;
      case RouteClass::kProvider:
        EXPECT_EQ(rel_to_next, Rel::kProvider);
        break;
      default:
        FAIL() << "unexpected class";
    }
  }
  // With global origins present, the vast majority of the graph routes.
  EXPECT_GT(reachable, topo.as_count() * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RibProperty, ::testing::Values(1, 7, 99));

// The heap-based fixpoint that compute_routing_state's bucket queue
// replaced, kept as the reference: a deque for stage 1, a priority queue
// over (child length, AS) for stage 3, and every stage filtering links()
// by relation.
RoutingState heap_routing_state(const AsTopology& topo,
                                std::span<const AnycastOrigin> origins) {
  const int n = topo.as_count();
  RoutingState state;
  state.best.resize(n);
  std::vector<RouteChoice>& best = state.best;
  std::deque<int> frontier;
  for (const auto& origin : origins) {
    if (!origin.announced || origin.local_only) continue;
    const auto idx = topo.index_of(origin.host_as);
    if (!idx) continue;
    RouteChoice self{RouteClass::kOrigin, origin.site_id, origin.prepend,
                     topo.info(*idx).asn};
    if (self < best[*idx]) {
      best[*idx] = self;
      frontier.push_back(*idx);
    }
  }
  while (!frontier.empty()) {
    const int u = frontier.front();
    frontier.pop_front();
    const RouteChoice ru = best[u];
    if (ru.cls != RouteClass::kOrigin && ru.cls != RouteClass::kCustomer) {
      continue;
    }
    for (const Link& link : topo.links(u)) {
      if (link.rel != Rel::kProvider) continue;
      RouteChoice cand{RouteClass::kCustomer, ru.site_id,
                       static_cast<std::uint16_t>(ru.path_len + 1),
                       topo.info(u).asn};
      if (cand < best[link.neighbor]) {
        best[link.neighbor] = cand;
        frontier.push_back(link.neighbor);
      }
    }
  }
  state.up = best;
  std::vector<RouteChoice> peer_candidates(n);
  for (int u = 0; u < n; ++u) {
    const RouteChoice& ru = best[u];
    if (ru.cls != RouteClass::kOrigin && ru.cls != RouteClass::kCustomer) {
      continue;
    }
    for (const Link& link : topo.links(u)) {
      if (link.rel != Rel::kPeer) continue;
      RouteChoice cand{RouteClass::kPeer, ru.site_id,
                       static_cast<std::uint16_t>(ru.path_len + 1),
                       topo.info(u).asn};
      if (cand < peer_candidates[link.neighbor]) {
        peer_candidates[link.neighbor] = cand;
      }
    }
  }
  for (int u = 0; u < n; ++u) {
    if (peer_candidates[u].reachable() && peer_candidates[u] < best[u]) {
      best[u] = peer_candidates[u];
    }
  }
  state.scoped.assign(n, 0);
  std::vector<char>& scoped = state.scoped;
  for (const auto& origin : origins) {
    if (!origin.announced || !origin.local_only) continue;
    const auto idx = topo.index_of(origin.host_as);
    if (!idx) continue;
    RouteChoice self{RouteClass::kOrigin, origin.site_id, origin.prepend,
                     topo.info(*idx).asn};
    if (self < best[*idx]) {
      best[*idx] = self;
      scoped[*idx] = 1;
    }
    for (const Link& link : topo.links(*idx)) {
      if (link.rel == Rel::kProvider) continue;
      const RouteClass cls = link.rel == Rel::kCustomer ? RouteClass::kProvider
                                                        : RouteClass::kPeer;
      RouteChoice cand{cls, origin.site_id,
                       static_cast<std::uint16_t>(1 + origin.prepend),
                       topo.info(*idx).asn};
      if (cand < best[link.neighbor]) {
        best[link.neighbor] = cand;
        scoped[link.neighbor] = 1;
      }
    }
  }
  using Item = std::pair<std::uint16_t, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  for (int u = 0; u < n; ++u) {
    if (best[u].reachable() && !scoped[u]) {
      queue.emplace(static_cast<std::uint16_t>(best[u].path_len + 1), u);
    }
  }
  while (!queue.empty()) {
    const auto [child_len, u] = queue.top();
    queue.pop();
    const RouteChoice ru = best[u];
    if (!ru.reachable() || ru.path_len + 1 != child_len || scoped[u]) {
      continue;
    }
    for (const Link& link : topo.links(u)) {
      if (link.rel != Rel::kCustomer) continue;
      RouteChoice cand{RouteClass::kProvider, ru.site_id, child_len,
                       topo.info(u).asn};
      if (cand < best[link.neighbor]) {
        best[link.neighbor] = cand;
        scoped[link.neighbor] = 0;
        queue.emplace(static_cast<std::uint16_t>(child_len + 1),
                      link.neighbor);
      }
    }
  }
  return state;
}

// A random valley-free topology: a peering clique of tier-1s, tier-2s
// buying transit from one or two tier-1s and peering among themselves,
// and stubs buying from one to three tier-2s (now and then a tier-1) and
// now and then peering with another stub. ASNs are shuffled, so via-ASN
// tiebreaks do not follow index order, and the edges are added in a
// shuffled order, so relations interleave in each AS's insertion order.
AsTopology random_valley_free(util::Rng& rng) {
  const int tier1 = 2 + static_cast<int>(rng.below(3));
  const int tier2 = 3 + static_cast<int>(rng.below(6));
  const int stubs = 8 + static_cast<int>(rng.below(30));
  const int n = tier1 + tier2 + stubs;
  std::vector<std::uint32_t> asns;
  for (int i = 0; i < n; ++i) asns.push_back(100 + static_cast<std::uint32_t>(i));
  rng.shuffle(asns);
  AsTopology topo;
  for (int i = 0; i < n; ++i) {
    const AsTier tier = i < tier1           ? AsTier::kTier1
                        : i < tier1 + tier2 ? AsTier::kTier2
                                            : AsTier::kStub;
    topo.add_as({net::Asn(asns[static_cast<std::size_t>(i)]), tier, {0, 0},
                 "EU"});
  }
  struct Edge {
    int a, b;
    bool transit;  // a is b's provider; else a peering
  };
  std::vector<Edge> edges;
  const auto pick = [&](int lo, int count) {
    return lo + static_cast<int>(rng.below(static_cast<std::uint64_t>(count)));
  };
  for (int a = 0; a < tier1; ++a) {
    for (int b = a + 1; b < tier1; ++b) edges.push_back({a, b, false});
  }
  for (int t = tier1; t < tier1 + tier2; ++t) {
    const int first = pick(0, tier1);
    edges.push_back({first, t, true});
    const int second = pick(0, tier1);
    if (second != first && rng.chance(0.5)) edges.push_back({second, t, true});
    const int peer = pick(tier1, tier2);
    if (peer > t && rng.chance(0.6)) edges.push_back({t, peer, false});
  }
  for (int s = tier1 + tier2; s < n; ++s) {
    const int uplinks = 1 + static_cast<int>(rng.below(3));
    std::vector<int> chosen;
    for (int u = 0; u < uplinks; ++u) {
      const int p = rng.chance(0.1) ? pick(0, tier1) : pick(tier1, tier2);
      if (std::find(chosen.begin(), chosen.end(), p) == chosen.end()) {
        chosen.push_back(p);
        edges.push_back({p, s, true});
      }
    }
    const int peer = pick(tier1 + tier2, stubs);
    if (peer > s && rng.chance(0.2)) edges.push_back({s, peer, false});
  }
  rng.shuffle(edges);
  for (const Edge& e : edges) {
    if (e.transit) {
      topo.add_transit(e.a, e.b);
    } else {
      topo.add_peering(e.a, e.b);
    }
  }
  return topo;
}

// The bucket queue reproduces the heap-based fixpoint exactly on 240
// random topologies whose origins are withdrawn, local-only or prepended,
// with sites sharing host ASes so that both the via-ASN and the site-id
// tiebreaks decide routes.
TEST(Rib, BucketQueueMatchesHeapReferenceOnRandomTopologies) {
  int asn_ties = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    util::Rng rng(seed * 7919);
    const AsTopology topo = random_valley_free(rng);
    const int n = topo.as_count();
    std::vector<AnycastOrigin> origins;
    const int sites = 2 + static_cast<int>(rng.below(5));
    for (int site = 0; site < sites; ++site) {
      const int hosts = 1 + static_cast<int>(rng.below(2));
      for (int h = 0; h < hosts; ++h) {
        AnycastOrigin o;
        o.site_id = site;
        o.host_as = topo.info(static_cast<int>(rng.below(n))).asn;
        o.announced = rng.chance(0.85);
        o.local_only = rng.chance(0.25);
        o.prepend = static_cast<std::uint16_t>(rng.below(4));
        origins.push_back(o);
      }
    }
    // Two sites announced from one AS: only the site id breaks that tie.
    origins.push_back(AnycastOrigin{sites, origins.front().host_as, true,
                                    false, origins.front().prepend});

    const RoutingState want = heap_routing_state(topo, origins);
    const RoutingState got = compute_routing_state(topo, origins);
    ASSERT_EQ(got.best, want.best) << "seed " << seed;
    ASSERT_EQ(got.up, want.up) << "seed " << seed;
    ASSERT_EQ(got.scoped, want.scoped) << "seed " << seed;

    // Count provider routes that had an equal-length rival from another
    // provider, so the via-ASN tiebreak chose between them.
    for (int u = 0; u < n; ++u) {
      const RouteChoice& r = want.best[u];
      if (r.cls != RouteClass::kProvider || want.scoped[u]) continue;
      int offers = 0;
      for (const Link& link : topo.providers(u)) {
        const RouteChoice& p = want.best[link.neighbor];
        offers += p.reachable() && !want.scoped[link.neighbor] &&
                  p.path_len + 1 == r.path_len;
      }
      asn_ties += offers >= 2;
    }
  }
  EXPECT_GT(asn_ties, 200);
}

}  // namespace
}  // namespace rootstress::bgp
