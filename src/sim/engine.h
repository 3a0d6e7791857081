// The simulation engine: couples attack traffic, BGP routing, anycast
// sites, Atlas probing, the route collector, and RSSAC accounting into
// one deterministic run, and returns everything the paper's analyses
// consume.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "anycast/defense.h"
#include "anycast/deployment.h"
#include "atlas/cleaning.h"
#include "atlas/population.h"
#include "atlas/record.h"
#include "attack/botnet.h"
#include "attack/traffic.h"
#include "bgp/collector.h"
#include "dns/message.h"
#include "fault/runtime.h"
#include "net/geo.h"
#include "obs/runtime.h"
#include "playbook/controller.h"
#include "resolver/population.h"
#include "rssac/metrics.h"
#include "rssac/report.h"
#include "sim/fluid.h"
#include "sim/scenario.h"
#include "util/parallel.h"
#include "util/time_series.h"

namespace rootstress::sim {

/// Immutable description of one site, copied out of the deployment so
/// analyses do not need the live engine.
struct SiteMeta {
  int site_id = -1;
  char letter = '?';
  std::string code;
  std::string label;  ///< "K-AMS"
  int facility = -1;
  double capacity_qps = 0.0;
  bool global = true;
  net::GeoPoint location{};
  int servers = 0;
};

/// Everything a run produces.
struct SimulationResult {
  net::SimTime start{};
  net::SimTime end{};
  net::SimTime bin_width{};
  net::SimInterval probe_window{};

  /// Letter characters by service index ('A'..'M', then 'N' for .nl).
  std::vector<char> letter_chars;
  std::vector<SiteMeta> sites;
  std::vector<atlas::VantagePoint> vps;

  /// Cleaned measurement records (cleaning stats alongside).
  atlas::RecordSet records;
  atlas::CleaningStats cleaning{};

  /// Per-service fluid series over the whole span (value = q/s means).
  std::vector<util::BinnedSeries> service_offered_qps;
  std::vector<util::BinnedSeries> service_served_qps;
  std::vector<util::BinnedSeries> service_served_legit_qps;
  std::vector<util::BinnedSeries> service_failed_legit_qps;

  /// Per-site fluid series (q/s means) over the whole span.
  std::vector<util::BinnedSeries> site_served_qps;
  std::vector<util::BinnedSeries> site_offered_attack_qps;
  std::vector<util::BinnedSeries> site_loss_fraction;

  /// Full route-change log plus the collector's per-service series.
  std::vector<bgp::RouteChange> route_changes;
  std::vector<util::BinnedSeries> collector_series;

  /// RSSAC accounting (letters only; .nl is not a root letter).
  rssac::DailyAccumulator rssac{13};
  std::vector<rssac::Publisher> rssac_publishers;
  double resolver_pool = 0.0;

  /// What the reactive playbook controller did (all zeros / -1 when the
  /// scenario ran without one): detections, activations, vetoes, and
  /// time-to-first-action, per rule and in total.
  playbook::PlaybookRunStats playbook;

  /// User-experience report from the in-loop resolver population
  /// (enabled == false when the scenario had no resolver_profile). Binned
  /// on the same grid as the fluid series; digests are bit-identical for
  /// any thread count.
  resolver::EndUserReport enduser;

  /// Final telemetry snapshot (empty when ScenarioConfig::telemetry is
  /// off): metrics, phase profile, trace stats. core::write_telemetry()
  /// exports it as JSON.
  obs::Snapshot telemetry;

  /// Service index for a letter char; -1 if absent. O(1) once run() has
  /// built the lookup tables; linear fallback on hand-built results.
  int service_index(char letter) const noexcept;
  /// Site metadata by (letter, code); nullptr if absent. O(1) once run()
  /// has built the lookup tables (analyses call this per record).
  const SiteMeta* find_site(char letter, std::string_view code) const noexcept;
  /// All site ids of one letter.
  std::vector<int> sites_of(char letter) const;

  /// (Re)builds the constant-time lookup tables behind service_index and
  /// find_site from letter_chars/sites. run() calls this once metadata
  /// is final; call it again after mutating either by hand.
  void build_lookup_tables();

 private:
  /// Packs (letter, code) into one key; 0 when the code is too long to
  /// pack (no deployment site is — codes are 3-letter airport codes).
  static std::uint64_t pack_site_key(char letter,
                                     std::string_view code) noexcept;

  /// letter -> service index (256 entries, -1 absent); empty until built.
  std::vector<int> service_lookup_;
  /// packed (letter, code) -> index into `sites`; empty until built.
  std::unordered_map<std::uint64_t, std::size_t> site_lookup_;
};

/// Runs one scenario. Doubles as the playbook controller's actuation
/// backend: the controller decides, the engine applies (scope changes,
/// RRL toggles, capacity scaling, prepends) against the live deployment.
class SimulationEngine : private playbook::ActuationBackend {
 public:
  explicit SimulationEngine(ScenarioConfig config);

  /// Executes the run; call once per engine.
  SimulationResult run();

  const anycast::RootDeployment& deployment() const noexcept {
    return *deployment_;
  }

  /// The run's telemetry runtime; null when ScenarioConfig::telemetry is
  /// off. Valid for the engine's lifetime (e.g. to inspect the trace or
  /// profiler after run()).
  obs::Runtime* telemetry_runtime() noexcept { return obs_.get(); }

  /// Worker lanes the run resolved to (config threads / env / hardware).
  int thread_count() const noexcept { return threads_; }

 private:
  struct PendingReannounce {
    int site_id = -1;
    net::SimTime when{};
  };

  /// What a shard keeps per VP from one probing step to the next.
  struct VpProbeState {
    /// The VP's next probe time (ms) for the shard's service; meaningful
    /// once the shard is `scheduled`.
    std::int64_t next_ms = 0;
    /// probe_key_prefix(seed, shard's service, VP), set with next_ms: a
    /// probe's stream key is one mix64 of it and the probe time.
    std::uint64_t key_prefix = 0;
    /// The site `server` and `base_rtt_ms` belong to (-1: none yet).
    int site = -1;
    /// AnycastSite::pick_server(vp.address) at `site` (0-based).
    int server = 0;
    /// net::base_rtt_ms(vp.location, location of `site`).
    double base_rtt_ms = 0.0;
  };

  /// One unit of parallel probing: one service over one VP range, with
  /// its own output records (merged in task order after the barrier, so
  /// the record stream is identical to the serial service->VP->time
  /// iteration for any thread count). Cache-line aligned: each lane
  /// grows its shard's `records` every step, and that end pointer must
  /// not share a line with the neighbouring shard another lane fills.
  struct alignas(64) ProbeShard {
    int service = -1;
    std::size_t vp_begin = 0;
    std::size_t vp_end = 0;
    /// Set at the shard's first probing step, when every VP is placed on
    /// its schedule. Probing steps are contiguous, so from then on each
    /// VP's next_ms is its first probe time >= the step's begin.
    bool scheduled = false;
    /// Indexed by VP - vp_begin.
    std::vector<VpProbeState> vps;
    /// This step's records, reused across steps (capacity kept); merged
    /// into the run's RecordSet after the barrier.
    std::vector<atlas::ProbeRecord> records;
  };

  /// The inputs a service's load buffer was last computed from: its
  /// prefix's routing version and the bit patterns of the offered rates.
  /// compute_service_load_into is a pure function of these plus the
  /// deployment, botnet and legit model, which the engine fixes for its
  /// lifetime; that is why this key lives here and not in fluid.h.
  struct LoadInputs {
    std::uint64_t routing_version = 0;
    std::uint64_t attack_bits = 0;
    std::uint64_t legit_bits = 0;

    bool operator==(const LoadInputs&) const = default;
  };

  /// What a probe record takes from its CHAOS reply: the outcome the
  /// reply classifies to, its RCODE, and the (site, server) its identity
  /// names. Fixed per (site, server) for the whole run.
  struct ReplyFields {
    atlas::ProbeOutcome outcome = atlas::ProbeOutcome::kError;
    std::uint8_t rcode = 0;
    std::int16_t site_id = -1;
    std::uint8_t server = 0;

    bool operator==(const ReplyFields&) const = default;
  };

  void apply_policy_step(net::SimTime now);
  void apply_adaptive_defense(net::SimTime now);
  /// Registers the flight recorder's series and schedule-derived spans
  /// (telemetry on only) and caches the handles the per-step recording
  /// phase uses.
  void setup_timeline();
  /// Serial per-step recording phase: folds this step's published loads,
  /// site states, and playbook signals into the timeline. Pure reads of
  /// already-computed state — nothing in the simulation reads the
  /// timeline back, so recording cannot perturb results.
  void record_timeline_step(net::SimTime t);
  /// One letter's user view of the fluid step just published, shared by
  /// the flight recorder and the resolver population.
  struct LetterView {
    double answered;  ///< legit answered fraction (1 with no legit load)
    double delay_ms;  ///< offered-weighted mean queue delay of its sites
  };
  LetterView letter_view(std::size_t service) const;
  /// Advances the fault runtime to `t` and applies whatever injections
  /// came due (site failures/recoveries, BGP session flaps). Serial
  /// phase, before any defense layer runs, so holds are current.
  void apply_fault_step(net::SimTime t);
  /// Builds this step's operator-view observations and runs the playbook
  /// controller (serial phase; decisions are thread-count-invariant).
  void run_playbook_step(net::SimTime now);
  /// playbook::ActuationBackend: applies one due action to the world,
  /// enforcing the last-global-site withdrawal veto.
  playbook::ActuationOutcome actuate(int site_id,
                                     const playbook::Action& action,
                                     net::SimTime now) override;
  /// The one last-global-site guard every withdrawal path shares (static
  /// policy and playbook alike): returns true, after recording the veto
  /// (site policy state, policy.withdraw_veto counter, trace event), when
  /// withdrawing `site` would leave its letter with no global site.
  bool veto_last_global_withdrawal(anycast::AnycastSite& site,
                                   net::SimTime now);
  void update_h_root_backup(net::SimTime now);
  void run_fluid_step(net::SimTime t, SimulationResult& result,
                      const std::vector<obs::Gauge*>& g_offered,
                      const std::vector<obs::Gauge*>& g_served,
                      const std::vector<obs::Gauge*>& g_failed_legit);
  /// Writes the sums site_row_ holds for `svc`'s sites into bin
  /// site_row_bin_ of their three site series, then zeroes them. Pass 2
  /// calls it per service on a bin change, run() for every service after
  /// the last step.
  void flush_site_row(const anycast::ServiceInfo& svc,
                      SimulationResult& result);
  /// Steps the in-loop resolver population (no-op when the scenario has
  /// no resolver_profile): builds the letters' answered fractions and
  /// offered-weighted RTTs from the fluid step just completed, applies
  /// the fault schedule's legit demand scale, and advances every
  /// resolver one step. Purely observational for the server side.
  void run_resolver_step(net::SimTime t);
  void run_probes(net::SimTime step_begin, atlas::RecordSet& raw);
  void record_rssac(net::SimTime now, SimulationResult& result);
  void probe_once(const atlas::VantagePoint& vp, VpProbeState& state,
                  int service_index,
                  const std::vector<bgp::RouteChoice>& routes,
                  net::SimTime when, std::vector<atlas::ProbeRecord>& out);
  /// Builds chaos_query_, site_by_identity_ and the reply table (run(),
  /// records on only).
  void build_reply_table();
  /// The probe reply chain, the only copy of it: the server's CHAOS
  /// answer to the service's cached query, encoded, decoded, and its TXT
  /// identity looked up. Const and counter-free, so probing lanes may
  /// call it concurrently.
  ReplyFields chaos_reply_fields(int service_index, int site_id,
                                 int server_0based) const;

  ScenarioConfig config_;
  int threads_ = 1;
  std::unique_ptr<obs::Runtime> obs_;
  std::unique_ptr<anycast::RootDeployment> deployment_;
  attack::Botnet botnet_;
  attack::LegitTraffic legit_;
  std::vector<atlas::VantagePoint> vps_;
  std::optional<bgp::RouteCollector> collector_;
  util::Rng rng_;
  /// Fixed-worker pool for the per-step parallel phases. Always present;
  /// with threads_ == 1 it spawns no workers and parallel_for runs
  /// inline (the exact legacy path).
  std::unique_ptr<util::ThreadPool> pool_;

  // Per-letter legit failures from the previous step (drives retries /
  // letter flips).
  std::vector<double> prev_failed_legit_;
  std::vector<PendingReannounce> pending_reannounce_;
  std::vector<int> probed_services_;           ///< service indices probed
  std::vector<std::int64_t> probe_interval_ms_;  ///< per service
  /// Per-service load buffers, preallocated once in run() and rewritten
  /// in place every step (pass 1 writes them in parallel).
  std::vector<ServiceLoad> current_loads_;
  /// What each current_loads_ entry was computed from (nullopt: nothing
  /// yet). Pass 1 recomputes a load only when its inputs moved.
  std::vector<std::optional<LoadInputs>> load_inputs_;
  /// Per-service (facility, Gb/s) contributions staged by pass 1 and
  /// merged into the facility table in service order — the merge order,
  /// and therefore every floating-point sum, is thread-count-invariant.
  std::vector<std::vector<std::pair<int, double>>> facility_contrib_;
  /// Parallel probing shards, service-major then VP-ascending.
  std::vector<ProbeShard> probe_shards_;
  /// Decoded CHAOS query per service (encoded and decoded once). The
  /// message id is fixed per service; replies echo it but nothing
  /// downstream reads it.
  std::vector<dns::Message> chaos_query_;
  const attack::AttackEvent* active_event_ = nullptr;
  /// CHAOS identity text -> (site id << 8 | server index): one entry per
  /// deployed server, first one wins, so a reply maps back to its site
  /// with one hash lookup and no format parse.
  std::unordered_map<std::string, std::uint32_t> site_by_identity_;
  /// chaos_reply_fields() of every server of every probed service, flat:
  /// (site, server) sits at reply_first_[site id] + server index. Probes
  /// copy from here; only the debug cross-check runs the codec per probe.
  std::vector<ReplyFields> reply_fields_;
  std::vector<std::size_t> reply_first_;
  /// Adaptive defense: last meaningful offered load per site, used as the
  /// would-be load of withdrawn sites (slowly decayed) so the controller
  /// does not flap between withdraw and re-announce.
  std::vector<double> adaptive_last_offered_;
  /// Per-site time of the controller's last scope change (20-min
  /// cool-down between decisions).
  std::vector<net::SimTime> adaptive_last_change_;
  /// The advisor's per-step buffers (one service at a time), reused for
  /// the whole run.
  std::vector<double> adaptive_capacity_;
  std::vector<double> adaptive_offered_;
  std::vector<anycast::SiteAdvice> adaptive_advice_;
  std::vector<std::size_t> adaptive_order_;
  /// defense.advice counters by service and AdvisedAction, registered on
  /// first use (telemetry on only).
  std::vector<std::array<obs::Counter*, 4>> adaptive_advice_counters_;
  /// Reactive playbook controller (null when the scenario has none) and
  /// its per-step observation buffer (reused; indexed by site id).
  std::unique_ptr<playbook::PlaybookController> playbook_;
  std::vector<playbook::SiteObservation> playbook_obs_;
  /// Fault/chaos runtime (null when the scenario's fault schedule is
  /// empty). Mutated only in the serial fault-injection phase.
  std::unique_ptr<fault::FaultRuntime> fault_;
  /// In-loop resolver population (null when the scenario has no
  /// resolver_profile). Stepped in a serial phase right after the fluid
  /// pass; internally parallel over a thread-count-independent shard
  /// layout.
  std::unique_ptr<resolver::ResolverPopulation> resolver_pop_;
  /// Reused per-step input buffers for the population (letters only).
  std::array<double, resolver::kLetterCount> resolver_success_{};
  std::array<double, resolver::kLetterCount> resolver_rtt_ms_{};
  /// Whether the last step sat inside a hot pulse window (edge detector
  /// for the pulse-on/pulse-off trace instants; telemetry-only).
  bool fault_pulse_hot_ = false;

  /// Flight recorder (owned by obs_; null when telemetry is off) and the
  /// series handles setup_timeline() registered. tl_site_* / tl_pb_loss_
  /// are indexed by site id, the rest by service / rule index.
  obs::Timeline* timeline_ = nullptr;
  std::vector<std::size_t> tl_letter_offered_;
  std::vector<std::size_t> tl_letter_served_;
  std::vector<std::size_t> tl_letter_answered_;
  std::vector<std::size_t> tl_letter_delay_;
  std::vector<std::size_t> tl_letter_announced_;
  std::vector<std::size_t> tl_site_answered_;
  std::vector<std::size_t> tl_site_offered_;
  std::vector<std::size_t> tl_site_state_;
  std::vector<std::size_t> tl_pb_loss_;
  std::vector<std::size_t> tl_pb_rule_fired_;
  std::size_t tl_pb_detected_ = 0;
  /// End-user (resolver population) series; registered only when both
  /// telemetry and a resolver profile are on.
  std::size_t tl_eu_success_ = 0;
  std::size_t tl_eu_cache_hit_ = 0;
  std::size_t tl_eu_root_qps_ = 0;
  std::size_t tl_eu_latency_ = 0;
  std::size_t tl_eu_retries_ = 0;
  /// Last-seen per-rule fired totals (rule firings are recorded as
  /// per-step deltas into a kSum series).
  std::vector<std::uint64_t> tl_prev_rule_fired_;
  /// Open playbook hold-window span per site (Timeline::npos = none).
  std::vector<std::size_t> tl_hold_span_;
  /// Per-service step aggregates staged by fluid pass 2 (lane-private
  /// writes) for the serial recording phase. Sized in run() regardless of
  /// telemetry so pass 2 stays branchless.
  std::vector<double> step_offered_;
  std::vector<double> step_served_;
  std::vector<double> step_served_legit_;
  /// Fluid pass 2's sums for the bin being filled, three per site id
  /// (served q/s, offered attack q/s, arrival loss) side by side, so a
  /// step writes one dense row instead of three series per site.
  std::vector<double> site_row_;
  /// The bin site_row_ sums and how many steps it has summed so far.
  std::size_t site_row_bin_ = util::BinnedSeries::npos;
  std::uint64_t site_row_steps_ = 0;
};

}  // namespace rootstress::sim
