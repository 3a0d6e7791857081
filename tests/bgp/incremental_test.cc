// Randomized equivalence: the incremental delta-propagation recompute
// must be indistinguishable from the full-table recompute — identical
// RouteChange streams, route tables, stage internals (via the built-in
// cross-check), catchment assignments, and recompute counters — across
// hundreds of random announce/withdraw/scope/prepend/reset sequences on
// a synthesized hierarchical topology.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/catchment.h"
#include "bgp/simulator.h"
#include "bgp/topology.h"
#include "net/clock.h"
#include "obs/profiler.h"
#include "obs/runtime.h"
#include "util/rng.h"

namespace rootstress::bgp {
namespace {

constexpr int kSites = 12;

AsTopology random_topo(std::uint64_t seed) {
  TopologyConfig config;
  config.tier1_count = 4;
  config.tier2_per_region = 3;
  config.stub_count = 160;
  config.seed = seed;
  return AsTopology::synthesize(config);
}

// Sites hosted on stub ASes spread across the graph; a couple of sites
// share a host AS count of >1 via two origins to exercise multi-origin
// mutations.
std::vector<AnycastOrigin> site_origins(const AsTopology& topo) {
  const std::vector<int> stubs = topo.stub_indices();
  std::vector<AnycastOrigin> origins;
  for (int site = 0; site < kSites; ++site) {
    const int host = stubs[(site * 13) % stubs.size()];
    origins.push_back(AnycastOrigin{site, topo.info(host).asn, true, false});
  }
  // Site 0 announces from a second host as well.
  const int extra = stubs[(7 * 13 + 5) % stubs.size()];
  origins.push_back(AnycastOrigin{0, topo.info(extra).asn, true, false});
  return origins;
}

struct Harness {
  explicit Harness(RecomputeMode mode, const AsTopology& topo)
      : routing(topo) {
    routing.set_mode(mode);
    // The test is its own oracle; the built-in cross-check is exercised
    // separately (CrossCheckCatchesNothingOnHealthyState).
    routing.set_cross_check_interval(0);
    routing.attach_obs(&obs);
    prefix = routing.register_prefix("Z", site_origins(topo));
    routing.attach_obs(&obs);
  }

  obs::Runtime obs;
  AnycastRouting routing;
  int prefix = 0;
};

void expect_same_changes(const std::vector<RouteChange>& a,
                         const std::vector<RouteChange>& b, int op) {
  ASSERT_EQ(a.size(), b.size()) << "op " << op;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << "op " << op << " change " << i;
    EXPECT_EQ(a[i].as_index, b[i].as_index) << "op " << op << " change " << i;
    EXPECT_EQ(a[i].old_site, b[i].old_site) << "op " << op << " change " << i;
    EXPECT_EQ(a[i].new_site, b[i].new_site) << "op " << op << " change " << i;
  }
}

TEST(IncrementalBgp, RandomOpSequenceMatchesFullRecomputeExactly) {
  const AsTopology topo = random_topo(/*seed=*/99);
  Harness incremental(RecomputeMode::kIncremental, topo);
  Harness full(RecomputeMode::kFull, topo);
  ASSERT_EQ(incremental.routing.mode(), RecomputeMode::kIncremental);
  ASSERT_EQ(full.routing.mode(), RecomputeMode::kFull);

  util::Rng rng(20260808);
  constexpr int kOps = 600;
  for (int op = 0; op < kOps; ++op) {
    const int site = static_cast<int>(rng.below(kSites));
    const auto now = net::SimTime::from_minutes(op + 1);
    std::vector<RouteChange> a;
    std::vector<RouteChange> b;
    switch (rng.below(5)) {
      case 0:  // announce
        a = incremental.routing.set_announced(incremental.prefix, site, true,
                                              now);
        b = full.routing.set_announced(full.prefix, site, true, now);
        break;
      case 1:  // withdraw
        a = incremental.routing.set_announced(incremental.prefix, site, false,
                                              now);
        b = full.routing.set_announced(full.prefix, site, false, now);
        break;
      case 2: {  // partial withdrawal / scope toggles
        const bool announced = rng.below(4) != 0;
        const bool local = rng.below(2) == 1;
        a = incremental.routing.set_origin_state(incremental.prefix, site,
                                                 announced, local, now);
        b = full.routing.set_origin_state(full.prefix, site, announced, local,
                                          now);
        break;
      }
      case 3: {  // traffic-engineering prepend
        const int prepend = static_cast<int>(rng.below(4));
        a = incremental.routing.set_prepend(incremental.prefix, site, prepend,
                                            now);
        b = full.routing.set_prepend(full.prefix, site, prepend, now);
        break;
      }
      default:  // reset the site to its pristine announcing state
        a = incremental.routing.set_origin_state(incremental.prefix, site,
                                                 true, false, now);
        b = full.routing.set_origin_state(full.prefix, site, true, false, now);
        for (const RouteChange& c :
             incremental.routing.set_prepend(incremental.prefix, site, 0,
                                             now)) {
          a.push_back(c);
        }
        for (const RouteChange& c :
             full.routing.set_prepend(full.prefix, site, 0, now)) {
          b.push_back(c);
        }
        break;
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_changes(a, b, op));
    ASSERT_EQ(incremental.routing.routes(incremental.prefix),
              full.routing.routes(full.prefix))
        << "route tables diverged after op " << op;
  }

  // Catchments agree — via routes and via the SoA site_of mirror.
  const CatchmentSizes by_routes =
      catchment_sizes(full.routing.routes(full.prefix), kSites);
  const CatchmentSizes by_soa =
      catchment_sizes(incremental.routing.site_of(incremental.prefix), kSites);
  EXPECT_EQ(by_routes.per_site, by_soa.per_site);
  EXPECT_EQ(by_routes.unreachable, by_soa.unreachable);

  // Counter parity: both modes count one recompute per effective mutation,
  // the same number of per-AS changes, and the incremental mode reports
  // its reselect work.
  const auto counter = [](Harness& h, const char* name) {
    return h.obs.metrics().counter(name, {{"letter", "Z"}}).value();
  };
  EXPECT_EQ(counter(incremental, "bgp.recomputes"),
            counter(full, "bgp.recomputes"));
  EXPECT_EQ(counter(incremental, "bgp.route_changes"),
            counter(full, "bgp.route_changes"));
  EXPECT_GT(counter(incremental, "bgp.incremental_reselects"), 0u);
  EXPECT_EQ(counter(full, "bgp.incremental_reselects"), 0u);
}

TEST(IncrementalBgp, CrossCheckPassesWhenRunEveryStep) {
  const AsTopology topo = random_topo(/*seed=*/3);
  AnycastRouting routing(topo);
  routing.set_mode(RecomputeMode::kIncremental);
  routing.set_cross_check_interval(1);  // verify after every mutation
  const int prefix = routing.register_prefix("Z", site_origins(topo));

  util::Rng rng(42);
  for (int op = 0; op < 120; ++op) {
    const int site = static_cast<int>(rng.below(kSites));
    const auto now = net::SimTime::from_minutes(op + 1);
    switch (rng.below(4)) {
      case 0:
        routing.set_announced(prefix, site, rng.below(2) == 0, now);
        break;
      case 1:
        routing.set_origin_state(prefix, site, true, rng.below(2) == 0, now);
        break;
      case 2:
        routing.set_prepend(prefix, site, static_cast<int>(rng.below(3)), now);
        break;
      default:
        routing.set_origin_state(prefix, site, true, false, now);
        break;
    }
  }
  SUCCEED();  // cross_check throws std::logic_error on divergence
}

TEST(IncrementalBgp, SiteOfMirrorsRoutesAndHonorsUnroutedSlot) {
  const AsTopology topo = random_topo(/*seed=*/11);
  AnycastRouting routing(topo);
  const int prefix = routing.register_prefix("Z", site_origins(topo));
  routing.set_unrouted_slot(kSites);

  // Withdraw everything: every AS must land in the sink slot.
  for (int site = 0; site < kSites; ++site) {
    routing.set_announced(prefix, site, false, net::SimTime(site + 1));
  }
  const auto site_of = routing.site_of(prefix);
  const auto& routes = routing.routes(prefix);
  ASSERT_EQ(site_of.size(), routes.size());
  for (std::size_t as = 0; as < routes.size(); ++as) {
    EXPECT_FALSE(routes[as].reachable());
    EXPECT_EQ(site_of[as], kSites);
  }

  // Re-announce one site: its catchment reappears in the mirror.
  routing.set_announced(prefix, 4, true, net::SimTime::from_minutes(99));
  for (std::size_t as = 0; as < routes.size(); ++as) {
    EXPECT_EQ(routing.site_of(prefix)[as],
              routes[as].reachable() ? routes[as].site_id : kSites);
  }
}

TEST(IncrementalBgp, MutateOriginIsTheSingleEntryPoint) {
  const AsTopology topo = random_topo(/*seed=*/5);
  AnycastRouting routing(topo);
  const int prefix = routing.register_prefix("Z", site_origins(topo));

  // A no-op mutation reports no toggle, triggers no recompute.
  bool toggled_hook = false;
  auto changes = routing.mutate_origin(
      prefix, 3, [](AnycastOrigin&) { return false; }, net::SimTime(1),
      [&] { toggled_hook = true; });
  EXPECT_TRUE(changes.empty());
  EXPECT_FALSE(toggled_hook);

  // A real mutation fires the hook and recomputes.
  changes = routing.mutate_origin(
      prefix, 3,
      [](AnycastOrigin& origin) {
        origin.announced = false;
        return true;
      },
      net::SimTime(2), [&] { toggled_hook = true; });
  EXPECT_TRUE(toggled_hook);
  EXPECT_FALSE(changes.empty());
  EXPECT_FALSE(routing.announced(prefix, 3));
}

// Once its worklists, change buffers and reverse-reachability buckets have
// grown on a first pass, the incremental recompute allocates nothing but
// the change list it returns (reserved once, only when non-empty).
TEST(IncrementalBgp, RecomputeAllocatesOnlyItsChangeList) {
#ifdef ROOTSTRESS_NO_ALLOC_HOOK
  GTEST_SKIP() << "allocation hook disabled at compile time";
#else
  if (obs::allocation_count() == 0) {
    GTEST_SKIP() << "allocation hook not active in this binary";
  }
  const AsTopology topo = random_topo(/*seed=*/7);
  AnycastRouting routing(topo);
  routing.set_mode(RecomputeMode::kIncremental);
  routing.set_cross_check_interval(0);
  const int prefix = routing.register_prefix("Z", site_origins(topo));
  // One pass over every site: withdraw, scope, prepend, restore. Returns
  // how many of the returned change lists hold a heap buffer.
  const auto pass = [&](int round) {
    std::uint64_t lists = 0;
    const auto count = [&lists](const std::vector<RouteChange>& changes) {
      lists += changes.capacity() > 0 ? 1 : 0;
    };
    for (int site = 0; site < kSites; ++site) {
      const auto now = net::SimTime::from_minutes(100 * round + site);
      count(routing.set_announced(prefix, site, false, now));
      count(routing.set_origin_state(prefix, site, true, true, now));
      count(routing.set_prepend(prefix, site, 2, now));
      count(routing.set_origin_state(prefix, site, true, false, now));
      count(routing.set_prepend(prefix, site, 0, now));
    }
    return lists;
  };
  pass(0);  // warm-up
  const std::uint64_t before = obs::allocation_count();
  const std::uint64_t lists = pass(1);
  EXPECT_EQ(obs::allocation_count() - before, lists);
  EXPECT_GT(lists, 0u);
#endif
}

TEST(IncrementalBgp, PrependAboveTheCapIsRejected) {
  const AsTopology topo = random_topo(/*seed=*/5);
  AnycastRouting routing(topo);
  const int prefix = routing.register_prefix("Z", site_origins(topo));
  EXPECT_THROW(routing.set_prepend(prefix, 2, AnycastRouting::kMaxPrepend + 1,
                                   net::SimTime(1)),
               std::invalid_argument);
  EXPECT_THROW(routing.set_prepend(prefix, 2, 70000, net::SimTime(1)),
               std::invalid_argument);
  EXPECT_EQ(routing.prepend(prefix, 2), 0);
  routing.set_prepend(prefix, 2, AnycastRouting::kMaxPrepend, net::SimTime(2));
  EXPECT_EQ(routing.prepend(prefix, 2), AnycastRouting::kMaxPrepend);
}

}  // namespace
}  // namespace rootstress::bgp
