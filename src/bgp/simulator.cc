#include "bgp/simulator.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/runtime.h"
#include "util/logging.h"

namespace rootstress::bgp {

namespace {

void bucket_insert(std::vector<std::vector<int>>& buckets,
                   std::vector<int>& pos, int site, int as) {
  if (site < 0) return;
  if (static_cast<int>(buckets.size()) <= site) buckets.resize(site + 1);
  pos[as] = static_cast<int>(buckets[site].size());
  buckets[site].push_back(as);
}

void bucket_remove(std::vector<std::vector<int>>& buckets,
                   std::vector<int>& pos, int site, int as) {
  if (site < 0) return;
  std::vector<int>& bucket = buckets[site];
  const int p = pos[as];
  bucket[p] = bucket.back();
  pos[bucket[p]] = p;
  bucket.pop_back();
}

bool customer_direction(const RouteChoice& r) {
  return r.cls == RouteClass::kOrigin || r.cls == RouteClass::kCustomer;
}

/// True when each site's bucket in `kept` holds the same ASes as in
/// `rebuilt` (whose buckets are in ascending AS order), and `pos` locates
/// every AS of `kept` in its bucket.
bool same_buckets(const std::vector<std::vector<int>>& kept,
                  const std::vector<int>& pos,
                  const std::vector<std::vector<int>>& rebuilt) {
  const std::vector<int> none;
  std::vector<int> sorted;
  for (std::size_t site = 0; site < std::max(kept.size(), rebuilt.size());
       ++site) {
    sorted = site < kept.size() ? kept[site] : none;
    for (std::size_t p = 0; p < sorted.size(); ++p) {
      if (pos[sorted[p]] != static_cast<int>(p)) return false;
    }
    std::sort(sorted.begin(), sorted.end());
    if (sorted != (site < rebuilt.size() ? rebuilt[site] : none)) return false;
  }
  return true;
}

}  // namespace

AnycastRouting::AnycastRouting(const AsTopology& topology)
    : topology_(topology) {
#ifdef NDEBUG
  cross_check_interval_ = 256;
#else
  cross_check_interval_ = 1;  // debug builds verify every recompute
#endif
  if (const char* env = std::getenv("ROOTSTRESS_BGP_MODE")) {
    const std::string_view value(env);
    if (value == "full") {
      mode_ = RecomputeMode::kFull;
    } else if (value == "incremental") {
      mode_ = RecomputeMode::kIncremental;
    }
  }
}

int AnycastRouting::register_prefix(std::string label,
                                    std::vector<AnycastOrigin> origins) {
  Table table;
  table.label = std::move(label);
  table.origins = std::move(origins);
  table.origin_host.reserve(table.origins.size());
  for (const AnycastOrigin& origin : table.origins) {
    const auto idx = topology_.index_of(origin.host_as);
    table.origin_host.push_back(idx ? *idx : -1);
  }
  rebuild_aux(table, compute_routing_state(topology_, table.origins));
  tables_.push_back(std::move(table));
  const auto n = static_cast<std::size_t>(topology_.as_count());
  if (up_changed_stamp_.size() < n) {
    up_changed_stamp_.resize(n, 0);
    best_changed_stamp_.resize(n, 0);
    up_queued_.resize(n, 0);
    best_queued_.resize(n, 0);
  }
  return static_cast<int>(tables_.size()) - 1;
}

void AnycastRouting::rebuild_aux(Table& table, RoutingState state) const {
  table.routes = std::move(state.best);
  table.up = std::move(state.up);
  table.scoped = std::move(state.scoped);
  const int n = static_cast<int>(table.routes.size());
  table.site_of.resize(n);
  table.up_pos.assign(n, -1);
  table.best_pos.assign(n, -1);
  table.up_bucket.clear();
  table.best_bucket.clear();
  for (int as = 0; as < n; ++as) {
    const int site = table.routes[as].site_id;
    table.site_of[as] = site >= 0 ? site : unrouted_slot_;
    bucket_insert(table.up_bucket, table.up_pos, table.up[as].site_id, as);
    bucket_insert(table.best_bucket, table.best_pos, site, as);
  }
  rebuild_origin_caches(table);
}

void AnycastRouting::rebuild_origin_caches(Table& table) const {
  const auto n = table.routes.size();
  table.origin_seed.assign(n, RouteChoice{});
  table.scoped_offer.assign(n, RouteChoice{});
  for (std::size_t i = 0; i < table.origins.size(); ++i) {
    const AnycastOrigin& o = table.origins[i];
    if (!o.announced) continue;
    const int h = table.origin_host[i];
    if (h < 0) continue;
    const net::Asn asn = topology_.info(h).asn;
    const RouteChoice self{RouteClass::kOrigin, o.site_id, o.prepend, asn};
    if (!o.local_only) {
      if (self < table.origin_seed[h]) table.origin_seed[h] = self;
      continue;
    }
    if (self < table.scoped_offer[h]) table.scoped_offer[h] = self;
    // Never exported upward: peers learn a peer route, customers a
    // provider route.
    const auto offer = [&](std::span<const Link> group, RouteClass cls) {
      const RouteChoice cand{cls, o.site_id,
                             static_cast<std::uint16_t>(1 + o.prepend), asn};
      for (const Link& link : group) {
        if (cand < table.scoped_offer[link.neighbor]) {
          table.scoped_offer[link.neighbor] = cand;
        }
      }
    };
    offer(topology_.peers(h), RouteClass::kPeer);
    offer(topology_.customers(h), RouteClass::kProvider);
  }
}

RouteChoice AnycastRouting::compute_origin_seed(const Table& table,
                                                int as) const {
  RouteChoice best{};
  const net::Asn asn = topology_.info(as).asn;
  for (std::size_t i = 0; i < table.origins.size(); ++i) {
    if (table.origin_host[i] != as) continue;
    const AnycastOrigin& o = table.origins[i];
    if (!o.announced || o.local_only) continue;
    const RouteChoice cand{RouteClass::kOrigin, o.site_id, o.prepend, asn};
    if (cand < best) best = cand;
  }
  return best;
}

RouteChoice AnycastRouting::compute_scoped_offer(const Table& table,
                                                 int as) const {
  RouteChoice best{};
  for (std::size_t i = 0; i < table.origins.size(); ++i) {
    const AnycastOrigin& o = table.origins[i];
    if (!o.announced || !o.local_only) continue;
    const int h = table.origin_host[i];
    if (h < 0) continue;
    if (h == as) {
      const RouteChoice self{RouteClass::kOrigin, o.site_id, o.prepend,
                             topology_.info(h).asn};
      if (self < best) best = self;
      continue;
    }
    // `as` receives h's NO_EXPORT announcement unless `as` is h's provider
    // (i.e. h is our customer). Class is from the receiver's point of view.
    const auto offer = [&](std::span<const Link> group, RouteClass cls) {
      for (const Link& link : group) {
        if (link.neighbor != h) continue;
        const RouteChoice cand{cls, o.site_id,
                               static_cast<std::uint16_t>(1 + o.prepend),
                               link.asn};
        if (cand < best) best = cand;
      }
    };
    offer(topology_.providers(as), RouteClass::kProvider);
    offer(topology_.peers(as), RouteClass::kPeer);
  }
  return best;
}

void AnycastRouting::set_unrouted_slot(std::int32_t slot) {
  if (slot == unrouted_slot_) return;
  for (Table& table : tables_) {
    const int n = static_cast<int>(table.routes.size());
    for (int as = 0; as < n; ++as) {
      if (!table.routes[as].reachable()) table.site_of[as] = slot;
    }
    ++table.recompute_seq;
  }
  unrouted_slot_ = slot;
}

std::vector<RouteChange> AnycastRouting::set_announced(int prefix, int site_id,
                                                       bool announced,
                                                       net::SimTime now) {
  const auto on_toggled = [&] {
    const Table& table = tables_[prefix];
    if (announced) {
      RS_LOG_INFO << table.label << " site " << site_id << " announced at "
                  << now.to_string();
    } else {
      RS_LOG_WARN << table.label << " site " << site_id << " withdrawn at "
                  << now.to_string();
    }
    trace_session(table, site_id, announced, /*local_only=*/false, now);
  };
  return mutate_origin(
      prefix, site_id,
      [announced](AnycastOrigin& origin) {
        if (origin.announced == announced) return false;
        origin.announced = announced;
        return true;
      },
      // Through std::cref the std::function parameter wraps a reference in
      // place instead of copying the closure to the heap.
      now, std::cref(on_toggled));
}

std::vector<RouteChange> AnycastRouting::set_origin_state(int prefix,
                                                          int site_id,
                                                          bool announced,
                                                          bool local_only,
                                                          net::SimTime now) {
  const auto on_toggled = [&] {
    const Table& table = tables_[prefix];
    if (announced) {
      RS_LOG_INFO << table.label << " site " << site_id << " -> "
                  << (local_only ? "local-only" : "announced") << " at "
                  << now.to_string();
    } else {
      RS_LOG_WARN << table.label << " site " << site_id
                  << " -> withdrawn at " << now.to_string();
    }
    trace_session(table, site_id, announced, local_only, now);
  };
  return mutate_origin(
      prefix, site_id,
      [announced, local_only](AnycastOrigin& origin) {
        if (origin.announced == announced && origin.local_only == local_only) {
          return false;
        }
        origin.announced = announced;
        origin.local_only = local_only;
        return true;
      },
      now, std::cref(on_toggled));
}

std::vector<RouteChange> AnycastRouting::set_prepend(int prefix, int site_id,
                                                     int prepend,
                                                     net::SimTime now) {
  if (prepend > kMaxPrepend) {
    throw std::invalid_argument("prepend " + std::to_string(prepend) +
                                " above the cap of " +
                                std::to_string(kMaxPrepend));
  }
  const auto value = static_cast<std::uint16_t>(prepend < 0 ? 0 : prepend);
  const auto on_toggled = [&] {
    RS_LOG_INFO << tables_[prefix].label << " site " << site_id
                << " prepend -> " << value << " at " << now.to_string();
  };
  return mutate_origin(
      prefix, site_id,
      [value](AnycastOrigin& origin) {
        if (origin.prepend == value) return false;
        origin.prepend = value;
        return true;
      },
      now, std::cref(on_toggled));
}

std::vector<RouteChange> AnycastRouting::mutate_origin(
    int prefix, int site_id, const std::function<bool(AnycastOrigin&)>& fn,
    net::SimTime now, const std::function<void()>& on_toggled) {
  Table& table = tables_.at(prefix);
  bool toggled = false;
  for (AnycastOrigin& origin : table.origins) {
    if (origin.site_id == site_id) toggled |= fn(origin);
  }
  if (!toggled) return {};
  if (on_toggled) on_toggled();
  if (mode_ == RecomputeMode::kFull) return recompute_full(prefix, now);
  return recompute_incremental(prefix, site_id, now);
}

int AnycastRouting::prepend(int prefix, int site_id) const {
  for (const auto& origin : tables_.at(prefix).origins) {
    if (origin.site_id == site_id) return origin.prepend;
  }
  return 0;
}

bool AnycastRouting::announced(int prefix, int site_id) const {
  for (const auto& origin : tables_.at(prefix).origins) {
    if (origin.site_id == site_id) return origin.announced;
  }
  return false;
}

std::vector<RouteChange> AnycastRouting::recompute_full(int prefix,
                                                        net::SimTime now) {
  Table& table = tables_[prefix];
  RoutingState state = compute_routing_state(topology_, table.origins);
  std::vector<RouteChange> changes;
  for (int as = 0; as < static_cast<int>(state.best.size()); ++as) {
    if (state.best[as].site_id != table.routes[as].site_id) {
      changes.push_back(RouteChange{now, prefix, as,
                                    table.routes[as].site_id,
                                    state.best[as].site_id});
    }
  }
  rebuild_aux(table, std::move(state));
  ++table.recompute_seq;
  return finish_recompute(table, prefix, std::move(changes));
}

void AnycastRouting::record_up_change(int as, std::int32_t old_site) {
  if (up_changed_stamp_[as] == generation_) return;
  up_changed_stamp_[as] = generation_;
  up_changed_.push_back(ChangedAs{as, old_site});
}

void AnycastRouting::record_best_change(int as, std::int32_t old_site) {
  if (best_changed_stamp_[as] == generation_) return;
  best_changed_stamp_[as] = generation_;
  best_changed_.push_back(ChangedAs{as, old_site});
}

// Change propagation over the transit hierarchy. Stage 1 (`up`: customer
// routes) is a fixpoint over customer→provider edges; the best layer
// (stages 2/2b/3 folded into one local re-selection) is a fixpoint over
// provider→customer edges plus single-hop peer/NO_EXPORT offers whose
// inputs (stage-1 state, origin caches) are final by the time it runs.
// Both graphs are acyclic for valley-free hierarchies, so worklist
// iteration with *change* (not improvement) propagation converges to the
// unique fixpoint — the same one the full recompute finds. The crucial
// difference from a naive improvement wave: when a parent re-converges,
// its old export ceases to exist, so dependents must re-select even when
// the replacement offer compares worse than their stale route.
std::vector<RouteChange> AnycastRouting::recompute_incremental(
    int prefix, int site_id, net::SimTime now) {
  Table& t = tables_[prefix];
  const int n = static_cast<int>(t.routes.size());
  ++generation_;
  up_changed_.clear();
  best_changed_.clear();

  // FIFO worklists: entries before the head index are done.
  up_work_.clear();
  best_work_.clear();
  std::size_t up_head = 0;
  std::size_t best_head = 0;
  const auto push_up = [&](int as) {
    if (up_queued_[as]) return;
    up_queued_[as] = 1;
    up_work_.push_back(as);
  };
  const auto push_best = [&](int as) {
    if (best_queued_[as]) return;
    best_queued_[as] = 1;
    best_work_.push_back(as);
  };

  // Refresh the origin-driven caches around S's host ASes. Any AS whose
  // cached candidate moved becomes a worklist seed: origin seeds feed the
  // stage-1 layer, NO_EXPORT offers feed the best layer.
  for (std::size_t i = 0; i < t.origins.size(); ++i) {
    if (t.origins[i].site_id != site_id) continue;
    const int h = t.origin_host[i];
    if (h < 0) continue;
    const RouteChoice seed = compute_origin_seed(t, h);
    if (seed != t.origin_seed[h]) {
      t.origin_seed[h] = seed;
      push_up(h);
    }
    const RouteChoice offer = compute_scoped_offer(t, h);
    if (offer != t.scoped_offer[h]) {
      t.scoped_offer[h] = offer;
      push_best(h);
    }
    // h never exports upward: only its peers and customers hear it.
    const std::span<const Link> links = topology_.links(h);
    for (const Link& link : links.subspan(topology_.providers(h).size())) {
      const RouteChoice nb_offer = compute_scoped_offer(t, link.neighbor);
      if (nb_offer != t.scoped_offer[link.neighbor]) {
        t.scoped_offer[link.neighbor] = nb_offer;
        push_best(link.neighbor);
      }
    }
  }

  // Reverse-reachability seeds: every AS currently deriving its stage-1
  // or final route from site S re-selects. (The host seeds above already
  // cascade to these; the index makes the affected set explicit and keeps
  // the engine robust when a cascade path is cut by an earlier change.)
  if (site_id >= 0) {
    if (site_id < static_cast<int>(t.up_bucket.size())) {
      for (int as : t.up_bucket[site_id]) push_up(as);
    }
    if (site_id < static_cast<int>(t.best_bucket.size())) {
      for (int as : t.best_bucket[site_id]) push_best(as);
    }
  }

  // Failsafe: valley-free hierarchies are acyclic, so every AS settles in
  // O(depth) re-selections. A pathological (cyclic) topology falls back
  // to a full recompute instead of looping.
  std::size_t pops = 0;
  const std::size_t pop_budget = 16u * static_cast<std::size_t>(n) + 1024u;
  bool overflow = false;

  // Stage-1 layer: up[x] = min(origin seed, customer exports).
  while (up_head < up_work_.size()) {
    if (++pops > pop_budget) {
      overflow = true;
      break;
    }
    const int x = up_work_[up_head++];
    up_queued_[x] = 0;
    RouteChoice fresh = t.origin_seed[x];
    for (const Link& link : topology_.customers(x)) {
      const RouteChoice& rn = t.up[link.neighbor];
      if (!customer_direction(rn)) continue;
      const RouteChoice cand{RouteClass::kCustomer, rn.site_id,
                             static_cast<std::uint16_t>(rn.path_len + 1),
                             link.asn};
      if (cand < fresh) fresh = cand;
    }
    if (fresh == t.up[x]) continue;
    record_up_change(x, t.up[x].site_id);
    t.up[x] = fresh;
    for (const Link& link : topology_.providers(x)) push_up(link.neighbor);
  }

  // Every stage-1 change invalidates its consumers in the best layer: the
  // AS itself (stage-2 baseline) and its peers (stage-2 offers).
  for (const ChangedAs& e : up_changed_) {
    push_best(e.as);
    for (const Link& link : topology_.peers(e.as)) push_best(link.neighbor);
  }

  // Best layer: best[x] = min(up[x], peer offers, cached NO_EXPORT offer,
  // provider exports), with the same strict-improvement precedence the
  // staged full recompute applies (up ≺ peer ≺ scoped ≺ provider on ties).
  while (!overflow && best_head < best_work_.size()) {
    if (++pops > pop_budget) {
      overflow = true;
      break;
    }
    const int x = best_work_[best_head++];
    best_queued_[x] = 0;
    RouteChoice fresh = t.up[x];
    char scoped = 0;
    for (const Link& link : topology_.peers(x)) {
      const RouteChoice& rn = t.up[link.neighbor];
      if (!customer_direction(rn)) continue;
      const RouteChoice cand{RouteClass::kPeer, rn.site_id,
                             static_cast<std::uint16_t>(rn.path_len + 1),
                             link.asn};
      if (cand < fresh) fresh = cand;
    }
    if (t.scoped_offer[x] < fresh) {
      fresh = t.scoped_offer[x];
      scoped = 1;
    }
    for (const Link& link : topology_.providers(x)) {
      const RouteChoice& rp = t.routes[link.neighbor];
      if (!rp.reachable() || t.scoped[link.neighbor]) continue;
      const RouteChoice cand{RouteClass::kProvider, rp.site_id,
                             static_cast<std::uint16_t>(rp.path_len + 1),
                             link.asn};
      if (cand < fresh) {
        fresh = cand;
        scoped = 0;
      }
    }
    if (fresh == t.routes[x] && scoped == t.scoped[x]) continue;
    record_best_change(x, t.routes[x].site_id);
    t.routes[x] = fresh;
    t.scoped[x] = scoped;
    for (const Link& link : topology_.customers(x)) push_best(link.neighbor);
  }

  if (t.reselects != nullptr) t.reselects->add(pops);

  if (overflow) {
    // Drain queue flags, then recompute from scratch — diffing against the
    // pre-mutation sites recorded at first change.
    for (std::size_t i = up_head; i < up_work_.size(); ++i) {
      up_queued_[up_work_[i]] = 0;
    }
    for (std::size_t i = best_head; i < best_work_.size(); ++i) {
      best_queued_[best_work_[i]] = 0;
    }
    std::vector<std::int32_t> old_site(static_cast<std::size_t>(n));
    for (int as = 0; as < n; ++as) old_site[as] = t.routes[as].site_id;
    for (const ChangedAs& e : best_changed_) old_site[e.as] = e.old_site;
    RoutingState state = compute_routing_state(topology_, t.origins);
    std::vector<RouteChange> changes;
    for (int as = 0; as < n; ++as) {
      if (state.best[as].site_id != old_site[as]) {
        changes.push_back(
            RouteChange{now, prefix, as, old_site[as], state.best[as].site_id});
      }
    }
    rebuild_aux(t, std::move(state));
    ++t.recompute_seq;
    return finish_recompute(t, prefix, std::move(changes));
  }

  // Finalize: repair the reverse-reachability index and the site_of SoA
  // mirror, and emit changes in ascending AS order (matching the full
  // recompute's diff).
  for (const ChangedAs& e : up_changed_) {
    const int new_site = t.up[e.as].site_id;
    if (new_site == e.old_site) continue;
    bucket_remove(t.up_bucket, t.up_pos, e.old_site, e.as);
    bucket_insert(t.up_bucket, t.up_pos, new_site, e.as);
  }
  std::sort(best_changed_.begin(), best_changed_.end(),
            [](const ChangedAs& a, const ChangedAs& b) { return a.as < b.as; });
  std::size_t moved = 0;
  for (const ChangedAs& e : best_changed_) {
    moved += t.routes[e.as].site_id != e.old_site;
  }
  std::vector<RouteChange> changes;
  changes.reserve(moved);
  for (const ChangedAs& e : best_changed_) {
    const int new_site = t.routes[e.as].site_id;
    if (new_site == e.old_site) continue;
    bucket_remove(t.best_bucket, t.best_pos, e.old_site, e.as);
    bucket_insert(t.best_bucket, t.best_pos, new_site, e.as);
    t.site_of[e.as] = new_site >= 0 ? new_site : unrouted_slot_;
    changes.push_back(RouteChange{now, prefix, e.as, e.old_site, new_site});
  }
  ++t.recompute_seq;
  if (cross_check_interval_ > 0 &&
      t.recompute_seq % static_cast<std::uint64_t>(cross_check_interval_) ==
          0) {
    cross_check(t);
  }
  return finish_recompute(t, prefix, std::move(changes));
}

std::vector<RouteChange> AnycastRouting::finish_recompute(
    Table& table, int prefix, std::vector<RouteChange> changes) {
  if (table.recomputes != nullptr) {
    table.recomputes->add();
    table.changes->add(changes.size());
  }
  if (observer_ && !changes.empty()) observer_(prefix, changes);
  return changes;
}

void AnycastRouting::cross_check(const Table& table) const {
  Table full;
  full.origins = table.origins;
  full.origin_host = table.origin_host;
  rebuild_aux(full, compute_routing_state(topology_, table.origins));
  const auto fail = [&](const char* what) {
    throw std::logic_error("incremental BGP recompute diverged from full "
                           "recompute for prefix " +
                           table.label + ": " + what);
  };
  if (full.routes != table.routes || full.up != table.up ||
      full.scoped != table.scoped) {
    fail("routes");
  }
  if (full.site_of != table.site_of) fail("site_of");
  if (full.origin_seed != table.origin_seed ||
      full.scoped_offer != table.scoped_offer) {
    fail("origin caches");
  }
  if (!same_buckets(table.up_bucket, table.up_pos, full.up_bucket) ||
      !same_buckets(table.best_bucket, table.best_pos, full.best_bucket)) {
    fail("reverse-reachability index");
  }
}

void AnycastRouting::attach_obs(obs::Runtime* obs) {
  obs_ = obs;
  for (auto& table : tables_) {
    if (obs == nullptr) {
      table.recomputes = nullptr;
      table.changes = nullptr;
      table.reselects = nullptr;
      continue;
    }
    obs::Labels labels{{"letter", table.label}};
    table.recomputes = &obs->metrics().counter("bgp.recomputes", labels);
    table.changes = &obs->metrics().counter("bgp.route_changes", labels);
    table.reselects =
        &obs->metrics().counter("bgp.incremental_reselects", labels);
  }
}

void AnycastRouting::trace_session(const Table& table, int site_id,
                                   bool announced, bool local_only,
                                   net::SimTime now) {
  if (obs_ == nullptr) return;
  const char letter = table.label.size() == 1 ? table.label[0] : '\0';
  if (announced) {
    obs_->event(obs::TraceEventType::kBgpSessionRestore, now, letter,
                table.label + "#" + std::to_string(site_id),
                local_only ? "announcement restored (local-only)"
                           : "announcement restored",
                static_cast<double>(site_id));
  } else {
    obs_->event(obs::TraceEventType::kBgpSessionFailure, now, letter,
                table.label + "#" + std::to_string(site_id),
                "all BGP sessions of site torn down",
                static_cast<double>(site_id));
  }
}

}  // namespace rootstress::bgp
