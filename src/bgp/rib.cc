#include "bgp/rib.h"

#include <algorithm>
#include <cstdint>

namespace rootstress::bgp {

namespace {

/// True when `candidate` is strictly preferred over `incumbent`.
bool better(const RouteChoice& candidate, const RouteChoice& incumbent) {
  return candidate < incumbent;
}

}  // namespace

RoutingState compute_routing_state(const AsTopology& topo,
                                   std::span<const AnycastOrigin> origins) {
  const int n = topo.as_count();
  RoutingState state;
  state.best.resize(n);
  std::vector<RouteChoice>& best = state.best;

  // --- Stage 1: customer routes, BFS up transit edges from global origins.
  // `frontier` (a FIFO read from `head`) holds ASes whose customer-class
  // route may still export upward. Origins of local-only sites are
  // handled separately below.
  std::vector<int> frontier;
  frontier.reserve(static_cast<std::size_t>(n));
  for (const auto& origin : origins) {
    if (!origin.announced || origin.local_only) continue;
    const auto idx = topo.index_of(origin.host_as);
    if (!idx) continue;
    // Prepend hops count into the seed path length, so every path through
    // this origin looks `prepend` hops longer than it is.
    RouteChoice self{RouteClass::kOrigin, origin.site_id, origin.prepend,
                     origin.host_as};
    if (better(self, best[*idx])) {
      best[*idx] = self;
      frontier.push_back(*idx);
    }
  }
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const int u = frontier[head];
    const RouteChoice ru = best[u];
    if (ru.cls != RouteClass::kOrigin && ru.cls != RouteClass::kCustomer) {
      continue;  // superseded since enqueue
    }
    const RouteChoice cand{RouteClass::kCustomer, ru.site_id,
                           static_cast<std::uint16_t>(ru.path_len + 1),
                           topo.info(u).asn};
    for (const Link& link : topo.providers(u)) {  // export up only
      if (better(cand, best[link.neighbor])) {
        best[link.neighbor] = cand;
        frontier.push_back(link.neighbor);
      }
    }
  }
  // Snapshot the customer-direction fixed point: this is what every AS
  // exports to its providers and peers regardless of later stages.
  state.up = best;

  // --- Stage 2: peer routes, one peering hop from any customer/origin
  // route. Peer routes are not re-exported to peers or providers, so a
  // single pass suffices.
  std::vector<RouteChoice> peer_candidates(n);
  for (int u = 0; u < n; ++u) {
    const RouteChoice& ru = best[u];
    if (ru.cls != RouteClass::kOrigin && ru.cls != RouteClass::kCustomer) {
      continue;
    }
    const RouteChoice cand{RouteClass::kPeer, ru.site_id,
                           static_cast<std::uint16_t>(ru.path_len + 1),
                           topo.info(u).asn};
    for (const Link& link : topo.peers(u)) {
      if (better(cand, peer_candidates[link.neighbor])) {
        peer_candidates[link.neighbor] = cand;
      }
    }
  }
  for (int u = 0; u < n; ++u) {
    if (peer_candidates[u].reachable() && better(peer_candidates[u], best[u])) {
      best[u] = peer_candidates[u];
    }
  }

  // --- Stage 2b: local-only origins. The host AS originates; direct
  // neighbors receive the route (classed by their relationship to the
  // host) but never re-export it. `scoped` marks ASes whose current best
  // route is scope-limited so stage 3 will not propagate it onward.
  // Local-site announcements go to IXP peers and customers only — not to
  // transit providers. (Handing a NO_EXPORT route to a transit provider
  // would make that provider's best path unexportable and hide the
  // service from its whole customer cone.)
  state.scoped.assign(n, 0);
  std::vector<char>& scoped = state.scoped;
  for (const auto& origin : origins) {
    if (!origin.announced || !origin.local_only) continue;
    const auto idx = topo.index_of(origin.host_as);
    if (!idx) continue;
    RouteChoice self{RouteClass::kOrigin, origin.site_id, origin.prepend,
                     origin.host_as};
    if (better(self, best[*idx])) {
      best[*idx] = self;
      scoped[*idx] = 1;
    }
    const auto offer = [&](std::span<const Link> group, RouteClass cls) {
      const RouteChoice cand{cls, origin.site_id,
                             static_cast<std::uint16_t>(1 + origin.prepend),
                             origin.host_as};
      for (const Link& link : group) {
        if (better(cand, best[link.neighbor])) {
          best[link.neighbor] = cand;
          scoped[link.neighbor] = 1;
        }
      }
    };
    offer(topo.peers(*idx), RouteClass::kPeer);
    offer(topo.customers(*idx), RouteClass::kProvider);
  }

  // --- Stage 3: provider routes, shortest-first down transit edges from
  // every routed AS, through a bucket queue over path length. An AS whose
  // route has length L offers L + 1 to its customers, so every export
  // lands in the next bucket, and visiting the buckets in length order
  // settles each AS before it exports (the order Dijkstra would use).
  // Within a bucket the order cannot matter: nothing a bucket exports can
  // change a route of its own length.
  //
  // The seeds are every routed AS whose route may be re-exported, ordered
  // by length. Their routes are customer, peer or origin routes, which no
  // provider route can displace, so their lengths hold while stage 3 runs.
  std::vector<int> seeds;
  for (int u = 0; u < n; ++u) {
    if (best[u].reachable() && !scoped[u]) seeds.push_back(u);
  }
  std::stable_sort(seeds.begin(), seeds.end(), [&](int a, int b) {
    return best[a].path_len < best[b].path_len;
  });
  std::vector<int> bucket;  // exporters whose customers get `child_len`
  std::vector<int> next;    // customers that took a route this bucket
  std::size_t seed = 0;
  std::uint32_t child_len = 0;
  while (seed < seeds.size() || !bucket.empty()) {
    if (bucket.empty()) child_len = best[seeds[seed]].path_len + 1u;
    while (seed < seeds.size() &&
           best[seeds[seed]].path_len + 1u == child_len) {
      bucket.push_back(seeds[seed++]);
    }
    // Every AS here holds an exportable route of length child_len - 1:
    // stage 3 never scopes a route, and an AS taken into `next` can only be
    // improved again within the same bucket, at the same length. (An AS
    // improved twice in one bucket is visited twice; the second visit
    // offers what its customers already hold.)
    for (const int u : bucket) {
      const RouteChoice cand{RouteClass::kProvider, best[u].site_id,
                             static_cast<std::uint16_t>(child_len),
                             topo.info(u).asn};
      for (const Link& link : topo.customers(u)) {  // export down only
        if (better(cand, best[link.neighbor])) {
          best[link.neighbor] = cand;
          scoped[link.neighbor] = 0;  // now holds a globally exportable route
          next.push_back(link.neighbor);
        }
      }
    }
    bucket.swap(next);
    next.clear();
    ++child_len;
  }
  return state;
}

std::vector<RouteChoice> compute_routes(
    const AsTopology& topo, std::span<const AnycastOrigin> origins) {
  return std::move(compute_routing_state(topo, origins).best);
}

}  // namespace rootstress::bgp
