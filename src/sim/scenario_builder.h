// Fluent, validating construction of ScenarioConfig.
//
// The bare struct stays the plain value type every engine API consumes,
// but mutating it by hand is easy to get subtly wrong (a probe window
// outside the simulated span silently measures nothing; a bin width that
// is not a step multiple misaligns every series). The builder is the
// front door: named setters, named presets (the only definition of the
// paper's scenarios), and a build() that checks every cross-field
// invariant and reports the first violation instead of letting the run
// mis-simulate.
//
//   auto config = sim::ScenarioBuilder::november_2015()
//                     .vp_count(400)
//                     .attack_qps(5e6)
//                     .duration(net::SimTime::from_hours(12))
//                     .build();  // throws std::invalid_argument if broken
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/scenario.h"

namespace rootstress::sim {

class ScenarioBuilder {
 public:
  /// Starts from the default (quiet, full-deployment) configuration.
  ScenarioBuilder() = default;
  /// Starts from an existing configuration (incremental migration path:
  /// wrap a hand-built config to get validation for free).
  explicit ScenarioBuilder(ScenarioConfig base) : config_(std::move(base)) {}

  // -- Named presets ------------------------------------------------------
  // Each spans the two days from 2015-11-30T00:00Z, probes all of it
  // with 1200 VPs, and differs only in the attack schedule.

  /// The paper's Nov 30 / Dec 1, 2015 two-event scenario at 5 Mq/s per
  /// attacked letter.
  static ScenarioBuilder november_2015();
  /// Two quiet days, same deployment and measurement (§3.3.1 control).
  static ScenarioBuilder quiet_days();
  /// The June 25, 2016 follow-up event (§2.3 "Generalizing"): the single
  /// ~3-hour pulse at 6 Mq/s per attacked letter.
  static ScenarioBuilder events_2016();

  // -- Simulation identity and resources --------------------------------

  ScenarioBuilder& seed(std::uint64_t seed);
  /// Engine worker lanes; see ScenarioConfig::threads.
  ScenarioBuilder& threads(int threads);
  ScenarioBuilder& telemetry(bool enabled);

  // -- Deployment --------------------------------------------------------

  ScenarioBuilder& deployment(anycast::RootDeployment::Config config);
  /// Uniform multiplier on every site's capacity (§5 capacity axis).
  ScenarioBuilder& capacity_scale(double scale);
  /// Stub-AS count of the synthesized topology (small = fast tests).
  ScenarioBuilder& topology_stubs(int stub_count);
  /// CDN-scale synthetic scenario family (scale benches and tests): one
  /// synthetic anycast service with `n_sites` sites on a topology sized
  /// to roughly `n_ases` total ASes. `tiering` is the fraction of sites
  /// announced globally (the rest are BGP-scoped local sites). Replaces
  /// the root deployment: .nl is dropped, RSSAC collection is off, and
  /// probing covers the synthetic service ('A').
  ScenarioBuilder& synthetic_topology(int n_ases, int n_sites,
                                      double tiering = 0.75);
  /// Forces one stress policy on every site (what-if studies).
  ScenarioBuilder& force_policy(anycast::StressPolicy policy);
  /// Omniscient per-letter withdraw/absorb controller (anycast::advise).
  ScenarioBuilder& adaptive_defense(bool enabled = true);
  /// Reactive defense playbook (detect -> decide -> actuate from
  /// operator-visible observables only). Mutually exclusive with
  /// adaptive_defense.
  ScenarioBuilder& playbook(playbook::Playbook playbook);
  /// Whether sites start with response rate limiting active (playbooks
  /// can toggle it per site mid-run).
  ScenarioBuilder& rrl_enabled(bool enabled);

  // -- Traffic -----------------------------------------------------------

  ScenarioBuilder& schedule(attack::AttackSchedule schedule);
  /// Deterministic fault/pulse-wave chaos schedule (see fault/schedule.h).
  /// Pulse windows override the attack schedule; site faults, BGP resets,
  /// VP dropouts, telemetry gaps, and legit surges ride alongside.
  ScenarioBuilder& fault_schedule(fault::FaultSchedule schedule);
  /// In-loop recursive-resolver population (resolver/population.h):
  /// caching, retrying clients whose user-experience report rides on
  /// SimulationResult::enduser. Server-side results are unaffected.
  ScenarioBuilder& resolver_profile(resolver::PopulationConfig profile);
  /// Per-attacked-letter offered rate: rewrites the rate of every event
  /// in the schedule (presets ship the paper's timeline; this scales it).
  ScenarioBuilder& attack_qps(double per_letter_qps);
  ScenarioBuilder& botnet(attack::BotnetConfig config);
  ScenarioBuilder& legit(attack::LegitConfig config);
  /// Per-step probability of a background maintenance flap (Fig 9 noise).
  ScenarioBuilder& maintenance_flap(double per_step_probability);

  // -- Time --------------------------------------------------------------

  ScenarioBuilder& span(net::SimTime start, net::SimTime end);
  /// Keeps the current start, sets end = start + length.
  ScenarioBuilder& duration(net::SimTime length);
  ScenarioBuilder& step(net::SimTime step);
  ScenarioBuilder& bin_width(net::SimTime width);
  /// Extends the span to cover the seven RSSAC baseline days before the
  /// event (probing still covers only the probe window).
  ScenarioBuilder& include_baseline_week(bool include = true);

  // -- Measurement -------------------------------------------------------

  ScenarioBuilder& vp_count(int count);
  ScenarioBuilder& population(atlas::PopulationConfig config);
  /// Restricts Atlas probing to these letters (empty = all thirteen).
  ScenarioBuilder& probe_letters(std::vector<char> letters);
  /// Explicit probing window. Must lie inside the simulated span; when
  /// never called, the builder clamps the preset's window to the span
  /// instead (so november_2015().duration(12h) just works).
  ScenarioBuilder& probe_window(net::SimInterval window);
  ScenarioBuilder& collect_records(bool enabled);
  ScenarioBuilder& collect_rssac(bool enabled);
  ScenarioBuilder& enable_collector(bool enabled);
  /// Fluid-study shorthand: no probing, no collector, no RSSAC. The
  /// what-if regime comparisons and large campaign grids run this way.
  ScenarioBuilder& fluid_only();

  // -- Finalization ------------------------------------------------------

  /// The config as staged so far, without validation or window clamping.
  const ScenarioConfig& peek() const noexcept { return config_; }

  /// Empty when the staged config is valid, else the first problem.
  /// Checks everything sim::validate does plus the cross-field
  /// invariants: bin width a step multiple, probe window inside the span.
  std::string validate() const;

  /// Returns the validated config; throws std::invalid_argument carrying
  /// the validate() message when an invariant is violated.
  ScenarioConfig build() const;

  /// Non-throwing variant: nullopt on violation, message in *error.
  std::optional<ScenarioConfig> try_build(std::string* error = nullptr) const;

 private:
  /// Applies deferred pieces (attack rate rewrite, baseline extension,
  /// window clamping) to a copy of the staged config.
  ScenarioConfig resolve() const;

  ScenarioConfig config_{};
  std::optional<double> attack_qps_{};
  bool include_baseline_week_ = false;
  bool probe_window_set_ = false;
};

}  // namespace rootstress::sim
