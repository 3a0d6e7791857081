// Dynamic anycast routing: announce/withdraw events and their effects.
//
// AnycastRouting owns one route table per registered prefix (one per root
// letter plus .nl) over a shared topology. Site announcements toggle over
// time — explicit withdrawals, BGP session failures under load, and
// recoveries — and every recomputation yields the list of per-AS route
// changes, which feed both the measurement layer (site flips, §3.4) and
// the route collector (Fig 9).
//
// Recomputation is incremental by default: each table persists the full
// Gao-Rexford stage state (stage-1 customer routes, final bests, scope
// flags, per-AS origin-seed and NO_EXPORT-offer caches) plus a
// reverse-reachability index from each origin site to the ASes currently
// routing via it. A mutation of site S re-selects only the ASes whose
// inputs actually changed: worklist change-propagation over the acyclic
// transit hierarchy — the stage-1 `up` layer relaxes customer→provider,
// then the best layer relaxes provider→customer — seeded from S's host
// ASes, S's reverse-reachability buckets, and any AS whose scoped-offer
// cache moved. Every value CHANGE (improvement or degradation) re-enqueues
// the ASes that consume it, so stale routes via re-converged parents are
// re-selected rather than kept. The result is bit-identical to a full
// recompute — enforced by periodic (debug builds: every-step)
// cross-checks.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bgp/rib.h"
#include "bgp/route.h"
#include "bgp/topology.h"
#include "net/clock.h"

namespace rootstress::obs {
class Counter;
class Runtime;
}  // namespace rootstress::obs

namespace rootstress::bgp {

/// One AS's route to one prefix changed.
struct RouteChange {
  net::SimTime time{};
  int prefix = -1;     ///< prefix id from register_prefix
  int as_index = -1;
  int old_site = -1;   ///< -1 = unreachable
  int new_site = -1;
};

/// How AnycastRouting reacts to origin mutations.
enum class RecomputeMode {
  kFull,         ///< recompute every AS from scratch on every mutation
  kIncremental,  ///< delta propagation over the affected set (default)
};

/// Multi-prefix dynamic routing over a shared topology. Not thread-safe:
/// mutations must be serialized (the engine only mutates routing in its
/// serial phases).
class AnycastRouting {
 public:
  /// The topology must outlive the router. Topology must be final before
  /// the first register_prefix. Honors ROOTSTRESS_BGP_MODE=full|incremental.
  explicit AnycastRouting(const AsTopology& topology);

  /// Registers an anycast prefix (e.g. one root letter) with its origin
  /// set; returns the prefix id. Routes are computed immediately.
  int register_prefix(std::string label, std::vector<AnycastOrigin> origins);

  int prefix_count() const noexcept { return static_cast<int>(tables_.size()); }
  const std::string& label(int prefix) const { return tables_[prefix].label; }

  /// Current route of every AS (dense index) for `prefix`.
  const std::vector<RouteChoice>& routes(int prefix) const {
    return tables_[prefix].routes;
  }

  /// Struct-of-arrays view of the catchment: the winning site id per
  /// dense AS index, kept in lockstep with routes(). Unreachable ASes
  /// hold `unrouted_slot()` (default -1); set_unrouted_slot lets the
  /// fluid kernels point them at a trailing sink lane instead so the
  /// per-AS aggregation loop is branch-free.
  std::span<const std::int32_t> site_of(int prefix) const {
    return tables_[prefix].site_of;
  }

  /// Remaps the value stored in site_of() for unreachable ASes (applies
  /// to current and future entries). Typically the global site count.
  void set_unrouted_slot(std::int32_t slot);
  std::int32_t unrouted_slot() const noexcept { return unrouted_slot_; }

  /// Changes whenever site_of(prefix) may have changed: every recompute
  /// (even one that moved no AS) and every unrouted-slot remap bumps it.
  /// Equal versions of one prefix of one router imply equal site_of().
  std::uint64_t version(int prefix) const {
    return tables_[prefix].recompute_seq;
  }

  /// The origins of `prefix` (site announce state included).
  const std::vector<AnycastOrigin>& origins(int prefix) const {
    return tables_[prefix].origins;
  }

  /// Sets whether `site_id` of `prefix` is announced. When the state
  /// changes, routes are recomputed and the resulting per-AS changes are
  /// returned (and also delivered to the observer, if any).
  std::vector<RouteChange> set_announced(int prefix, int site_id,
                                         bool announced, net::SimTime now);

  /// Sets the full origin state of a site: announced and whether the
  /// announcement is BGP-scoped to direct neighbors (partial withdrawal).
  /// Recomputes and returns changes when anything toggled.
  std::vector<RouteChange> set_origin_state(int prefix, int site_id,
                                            bool announced, bool local_only,
                                            net::SimTime now);

  /// Largest prepend set_prepend accepts. Path lengths are 16-bit, so a
  /// cap well below 65535 keeps every origin's paths from wrapping.
  static constexpr int kMaxPrepend = 255;

  /// Sets the AS-path prepend on `site_id`'s announcement of `prefix`
  /// (traffic engineering: longer apparent path, smaller catchment).
  /// Recomputes and returns changes when the value actually moved. A
  /// negative prepend counts as 0; one above kMaxPrepend throws
  /// std::invalid_argument.
  std::vector<RouteChange> set_prepend(int prefix, int site_id, int prepend,
                                       net::SimTime now);

  /// Single entry point for all origin mutations: applies `fn` to every
  /// origin of `site_id`, and — when fn reports a change for at least one
  /// origin — invokes `on_toggled` (logging/tracing hook, may be null)
  /// and recomputes routes per the active RecomputeMode.
  std::vector<RouteChange> mutate_origin(
      int prefix, int site_id, const std::function<bool(AnycastOrigin&)>& fn,
      net::SimTime now, const std::function<void()>& on_toggled = nullptr);

  /// Current prepend of a site's origin (0 if the site is unknown).
  int prepend(int prefix, int site_id) const;

  /// Observer for route changes (the collector). Called once per
  /// recomputation with all changes of that recomputation.
  using Observer = std::function<void(int prefix,
                                      const std::vector<RouteChange>&)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// True if the site currently announces.
  bool announced(int prefix, int site_id) const;

  /// Recomputation strategy. kIncremental (the default) is bit-identical
  /// to kFull; kFull exists for cross-checking and benchmarking.
  void set_mode(RecomputeMode mode) noexcept { mode_ = mode; }
  RecomputeMode mode() const noexcept { return mode_; }

  /// Every `interval`-th incremental recompute is verified against a full
  /// compute_routing_state and a rebuild of the per-AS caches and the
  /// reverse-reachability index (0 disables; 1 = every step). Defaults to
  /// 1 in debug builds and 256 in release builds. Divergence throws
  /// std::logic_error.
  void set_cross_check_interval(int interval) noexcept {
    cross_check_interval_ = interval;
  }

  /// Attaches a telemetry runtime (nullable): session failures/restores
  /// become trace events, recomputations and per-AS route changes become
  /// counters. Call after every prefix is registered.
  void attach_obs(obs::Runtime* obs);

 private:
  struct Table {
    std::string label;
    std::vector<AnycastOrigin> origins;
    std::vector<int> origin_host;        ///< dense index per origin (-1 unknown)
    std::vector<RouteChoice> routes;     ///< final best per AS
    std::vector<RouteChoice> up;         ///< stage-1 customer route per AS
    std::vector<char> scoped;            ///< best is NO_EXPORT-scoped
    std::vector<std::int32_t> site_of;   ///< routes[as].site_id (SoA mirror)
    /// Per-AS caches of the two origin-driven candidate groups, so local
    /// re-selection never scans the origin list: the best global
    /// self-origination seed (stage 1) and the best NO_EXPORT offer from
    /// a local-only origin at this AS or a direct neighbor (stage 2b).
    std::vector<RouteChoice> origin_seed;
    std::vector<RouteChoice> scoped_offer;
    // Reverse-reachability index: per site, the ASes whose stage-1 route
    // (up_bucket) or final best (best_bucket) leads to it, with per-AS
    // positions for O(1) swap-removal.
    std::vector<std::vector<int>> up_bucket;
    std::vector<std::vector<int>> best_bucket;
    std::vector<int> up_pos;
    std::vector<int> best_pos;
    /// version(): bumped by every recompute and unrouted-slot remap.
    std::uint64_t recompute_seq = 0;
    obs::Counter* recomputes = nullptr;
    obs::Counter* changes = nullptr;
    obs::Counter* reselects = nullptr;
  };

  std::vector<RouteChange> recompute_full(int prefix, net::SimTime now);
  std::vector<RouteChange> recompute_incremental(int prefix, int site_id,
                                                 net::SimTime now);
  std::vector<RouteChange> finish_recompute(Table& table, int prefix,
                                            std::vector<RouteChange> changes);
  void rebuild_aux(Table& table, RoutingState state) const;
  void rebuild_origin_caches(Table& table) const;
  RouteChoice compute_origin_seed(const Table& table, int as) const;
  RouteChoice compute_scoped_offer(const Table& table, int as) const;
  void cross_check(const Table& table) const;
  void trace_session(const Table& table, int site_id, bool announced,
                     bool local_only, net::SimTime now);

  struct ChangedAs {
    int as = -1;
    std::int32_t old_site = -1;
  };

  // Scratch for incremental recomputation (mutations are serialized, so
  // one set shared by all tables). Epoch-stamped marks avoid O(n) clears.
  void record_up_change(int as, std::int32_t old_site);
  void record_best_change(int as, std::int32_t old_site);

  const AsTopology& topology_;
  std::vector<Table> tables_;
  Observer observer_;
  obs::Runtime* obs_ = nullptr;
  RecomputeMode mode_ = RecomputeMode::kIncremental;
  int cross_check_interval_ = 0;  // resolved in ctor
  std::int32_t unrouted_slot_ = -1;

  std::uint32_t generation_ = 0;
  std::vector<std::uint32_t> up_changed_stamp_;
  std::vector<std::uint32_t> best_changed_stamp_;
  std::vector<ChangedAs> up_changed_;
  std::vector<ChangedAs> best_changed_;
  std::vector<char> up_queued_;
  std::vector<char> best_queued_;
  std::vector<int> up_work_;    ///< stage-1 layer FIFO worklist
  std::vector<int> best_work_;  ///< best layer FIFO worklist
};

}  // namespace rootstress::bgp
