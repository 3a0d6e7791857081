// An anycast site: servers behind a load balancer behind an ingress
// queue, with a stress policy and (optionally) a shared facility.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "anycast/letter.h"
#include "anycast/loadbalancer.h"
#include "anycast/policy.h"
#include "anycast/queue_model.h"
#include "anycast/server.h"
#include "net/clock.h"
#include "net/geo.h"
#include "util/rng.h"

namespace rootstress::obs {
class Counter;
class Runtime;
}  // namespace rootstress::obs

namespace rootstress::anycast {

/// Routing scope of a site's announcement.
enum class SiteScope : std::uint8_t {
  kGlobal,     ///< announced normally
  kLocalOnly,  ///< transit withdrawn; direct peers still routed (partial)
  kDown,       ///< fully withdrawn
};

/// Announce state as a plot level (timeline "site.announce_state"
/// series): 1.0 global, 0.5 local-only, 0.0 down.
constexpr double scope_level(SiteScope scope) noexcept {
  switch (scope) {
    case SiteScope::kGlobal: return 1.0;
    case SiteScope::kLocalOnly: return 0.5;
    case SiteScope::kDown: return 0.0;
  }
  return 0.0;
}

/// Result of delivering one probe to the site. The site decides only
/// whether the probe gets through and which server answers; the reply
/// itself comes from `server(server - 1).dns()`.
struct ProbeReply {
  bool answered = false;
  int server = 0;               ///< 1-based index of the answering server
  double extra_delay_ms = 0.0;  ///< queueing delay beyond propagation
};

/// Telemetry wiring for one site: a nullable runtime plus cached
/// instrument pointers (shared per letter — see make_queue_instruments).
/// Default-constructed = telemetry off.
struct SiteTelemetry {
  obs::Runtime* runtime = nullptr;
  obs::Counter* withdrawals = nullptr;      ///< per-letter
  obs::Counter* restores = nullptr;         ///< per-letter
  obs::Counter* overload_onsets = nullptr;  ///< per-letter
  QueueInstruments queue;
};

/// One site of one letter.
class AnycastSite {
 public:
  /// `site_id` is the deployment-global id; `host_as` the dense topology
  /// index of the site's host AS; `facility` an index into the
  /// deployment's facility table or -1.
  AnycastSite(int site_id, char letter, SiteSpec spec, net::GeoPoint location,
              int host_as, int facility, const StressPolicy& policy,
              util::Rng& rng);

  int site_id() const noexcept { return site_id_; }
  char letter() const noexcept { return letter_; }
  const SiteSpec& spec() const noexcept { return spec_; }
  net::GeoPoint location() const noexcept { return location_; }
  int host_as() const noexcept { return host_as_; }
  int facility() const noexcept { return facility_; }
  const std::string& code() const noexcept { return spec_.code; }

  /// "X-APT" label as used throughout the paper.
  std::string label() const;

  /// Current announcement scope (engine keeps routing in sync).
  SiteScope scope() const noexcept { return scope_; }
  void set_scope(SiteScope scope) noexcept { scope_ = scope; }
  /// The scope the site announces when nothing holds it down: global for
  /// global sites, local-only for BGP-scoped ones.
  SiteScope home_scope() const noexcept {
    return spec_.global ? SiteScope::kGlobal : SiteScope::kLocalOnly;
  }

  /// set_scope plus logging, trace events, and counters; returns whether
  /// the scope actually changed. The engine's apply path uses this so
  /// every withdrawal/restore is observable (they used to be silent).
  bool transition_scope(SiteScope scope, net::SimTime now);

  /// Attaches telemetry; also wires each server's RRL instance.
  void attach_obs(const SiteTelemetry& telemetry);

  /// Whether response rate limiting is active at this site. Reactive
  /// defenses toggle it mid-run; the fluid layer consults this when
  /// modelling uplink egress and RSSAC response counts.
  bool rrl_enabled() const noexcept { return rrl_enabled_; }
  /// Flips RRL on every server of the site.
  void set_rrl_enabled(bool on) noexcept;

  /// Multiplies the site's capacity by `factor` (> 0): the "surge
  /// capacity" actuation. Takes effect from the next begin_step().
  void scale_capacity(double factor) noexcept;

  /// Policy state machine (engine drives it each step).
  SitePolicyState& policy_state() noexcept { return policy_state_; }

  /// Starts a simulation step with the given offered load; `shared_loss`
  /// is extra loss imposed by the site's facility uplink. When the bit
  /// patterns of the inputs, the capacity and the buffer all equal those
  /// of the last call, the queue outcome and arrival loss are kept, not
  /// re-evaluated (debug builds re-evaluate and throw std::logic_error on
  /// any difference); either way the outcome is recorded into the queue
  /// instruments and the overload state is updated.
  void begin_step(double attack_qps, double legit_qps, double shared_loss,
                  net::SimTime now);

  /// The queue outcome of the current step.
  const QueueOutcome& outcome() const noexcept { return outcome_; }
  double offered_attack_qps() const noexcept { return attack_qps_; }
  double offered_legit_qps() const noexcept { return legit_qps_; }
  /// Loss a query experiences arriving at this step (queue + facility).
  double arrival_loss() const noexcept { return arrival_loss_; }

  /// The 0-based server the ECMP balancer hashes `source` to. A pure
  /// function of (source, site), so a caller may keep it.
  int pick_server(net::Ipv4Addr source) const noexcept;

  /// Delivers one probe to server `server_index` (0-based: the
  /// pick_server() of its source) against the step's queue state: a down
  /// site answers nothing; otherwise concentrate/share mode shapes loss
  /// and delay. Draws `rng.chance` for loss, then, if answered, one
  /// delay-jitter uniform. Safe to call concurrently between
  /// begin_step()s: it only reads.
  ProbeReply probe(int server_index, util::Rng& rng) const;

  int server_count() const noexcept { return static_cast<int>(servers_.size()); }
  SiteServer& server(int index_0based) { return servers_[static_cast<std::size_t>(index_0based)]; }
  const SiteServer& server(int index_0based) const {
    return servers_[static_cast<std::size_t>(index_0based)];
  }

 private:
  /// The bit patterns of begin_step's inputs and of the queue parameters
  /// outcome_ was evaluated with.
  struct StepInputs {
    std::uint64_t attack_bits = 0;
    std::uint64_t legit_bits = 0;
    std::uint64_t shared_loss_bits = 0;
    std::uint64_t capacity_bits = 0;
    std::uint64_t buffer_bits = 0;

    bool operator==(const StepInputs&) const = default;
  };

  int site_id_;
  char letter_;
  SiteSpec spec_;
  net::GeoPoint location_;
  int host_as_;
  int facility_;
  SiteScope scope_ = SiteScope::kGlobal;
  SitePolicyState policy_state_;
  std::vector<SiteServer> servers_;
  bool rrl_enabled_ = true;

  // Per-step state.
  double attack_qps_ = 0.0;
  double legit_qps_ = 0.0;
  double arrival_loss_ = 0.0;
  QueueOutcome outcome_{};
  /// What outcome_ and arrival_loss_ were computed from (nullopt: no
  /// step yet).
  std::optional<StepInputs> step_inputs_;
  bool overloaded_ = false;
  int concentrate_server_ = 0;  ///< 0-based survivor when concentrating
  util::Rng jitter_rng_;
  SiteTelemetry telemetry_;
};

}  // namespace rootstress::anycast
