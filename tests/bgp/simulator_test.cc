#include "bgp/simulator.h"

#include <gtest/gtest.h>

namespace rootstress::bgp {
namespace {

AsTopology two_site_topo() {
  AsTopology topo;
  const int t2 = topo.add_as({net::Asn(20), AsTier::kTier2, {0, 0}, "EU"});
  const int a = topo.add_as({net::Asn(31), AsTier::kStub, {0, 0}, "EU"});
  const int b = topo.add_as({net::Asn(32), AsTier::kStub, {0, 0}, "EU"});
  const int c = topo.add_as({net::Asn(33), AsTier::kStub, {0, 0}, "EU"});
  topo.add_transit(t2, a);
  topo.add_transit(t2, b);
  topo.add_transit(t2, c);
  return topo;
}

std::vector<AnycastOrigin> two_origins() {
  return {AnycastOrigin{0, net::Asn(31), true, false},
          AnycastOrigin{1, net::Asn(32), true, false}};
}

TEST(AnycastRouting, RegisterComputesImmediately) {
  const auto topo = two_site_topo();
  AnycastRouting routing(topo);
  const int prefix = routing.register_prefix("K", two_origins());
  EXPECT_EQ(routing.prefix_count(), 1);
  EXPECT_EQ(routing.label(prefix), "K");
  const auto& routes = routing.routes(prefix);
  ASSERT_EQ(routes.size(), 4u);
  EXPECT_TRUE(routes[3].reachable());  // the client stub
}

TEST(AnycastRouting, WithdrawalMovesCatchmentAndReportsChanges) {
  const auto topo = two_site_topo();
  AnycastRouting routing(topo);
  const int prefix = routing.register_prefix("K", two_origins());
  const int before = routing.routes(prefix)[3].site_id;

  const auto changes = routing.set_announced(
      prefix, before, false, net::SimTime::from_minutes(5));
  EXPECT_FALSE(changes.empty());
  const int after = routing.routes(prefix)[3].site_id;
  EXPECT_NE(after, before);
  EXPECT_FALSE(routing.announced(prefix, before));
  EXPECT_TRUE(routing.announced(prefix, after));

  // Every change record must reflect the transition.
  for (const auto& change : changes) {
    EXPECT_EQ(change.prefix, prefix);
    EXPECT_NE(change.old_site, change.new_site);
    EXPECT_EQ(change.time, net::SimTime::from_minutes(5));
  }
}

TEST(AnycastRouting, RedundantToggleIsNoOp) {
  const auto topo = two_site_topo();
  AnycastRouting routing(topo);
  const int prefix = routing.register_prefix("K", two_origins());
  EXPECT_TRUE(routing.set_announced(prefix, 0, true, net::SimTime(0)).empty());
}

TEST(AnycastRouting, ObserverSeesChanges) {
  const auto topo = two_site_topo();
  AnycastRouting routing(topo);
  const int prefix = routing.register_prefix("K", two_origins());
  int calls = 0;
  std::size_t total = 0;
  routing.set_observer([&](int p, const std::vector<RouteChange>& changes) {
    EXPECT_EQ(p, prefix);
    ++calls;
    total += changes.size();
  });
  routing.set_announced(prefix, 0, false, net::SimTime(1));
  routing.set_announced(prefix, 0, true, net::SimTime(2));
  EXPECT_EQ(calls, 2);
  EXPECT_GT(total, 0u);
}

TEST(AnycastRouting, SetOriginStateScopesRoute) {
  auto topo = two_site_topo();
  // Stub 3 (index) peers directly with site 0's host (index 1).
  topo.add_peering(1, 3);
  AnycastRouting routing(topo);
  const int prefix = routing.register_prefix("K", two_origins());
  ASSERT_EQ(routing.routes(prefix)[3].site_id, 0);  // peer route wins

  // Partial withdrawal: transit goes away, the direct peer stays.
  routing.set_origin_state(prefix, 0, true, /*local_only=*/true,
                           net::SimTime(1));
  EXPECT_EQ(routing.routes(prefix)[3].site_id, 0);   // stuck peer
  EXPECT_EQ(routing.routes(prefix)[0].site_id, 1);   // transit moved to s1

  // Full withdrawal: even the peer loses it.
  routing.set_origin_state(prefix, 0, false, false, net::SimTime(2));
  EXPECT_EQ(routing.routes(prefix)[3].site_id, 1);
}

TEST(AnycastRouting, MultiplePrefixesIndependent) {
  const auto topo = two_site_topo();
  AnycastRouting routing(topo);
  const int k = routing.register_prefix("K", two_origins());
  const int e = routing.register_prefix("E", two_origins());
  routing.set_announced(k, 0, false, net::SimTime(1));
  EXPECT_FALSE(routing.announced(k, 0));
  EXPECT_TRUE(routing.announced(e, 0));
  EXPECT_TRUE(routing.routes(e)[1].reachable());
}

TEST(AnycastRouting, VersionTracksSiteOf) {
  const auto topo = two_site_topo();
  AnycastRouting routing(topo);
  const int k = routing.register_prefix("K", two_origins());
  const int e = routing.register_prefix("E", two_origins());
  const std::uint64_t k0 = routing.version(k);
  const std::uint64_t e0 = routing.version(e);

  // Nothing toggled, nothing recomputed: the version stays.
  routing.set_announced(k, 0, true, net::SimTime(1));
  EXPECT_EQ(routing.version(k), k0);

  // A withdrawal recomputes K alone.
  routing.set_announced(k, 0, false, net::SimTime(2));
  const std::uint64_t k1 = routing.version(k);
  EXPECT_NE(k1, k0);
  EXPECT_EQ(routing.version(e), e0);

  // Remapping the unrouted slot rewrites site_of of every prefix.
  routing.set_unrouted_slot(2);
  EXPECT_NE(routing.version(k), k1);
  EXPECT_NE(routing.version(e), e0);
  const std::uint64_t e1 = routing.version(e);
  routing.set_unrouted_slot(2);  // same slot: nothing rewritten
  EXPECT_EQ(routing.version(e), e1);
}

}  // namespace
}  // namespace rootstress::bgp
