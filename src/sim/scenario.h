// Scenario configuration: what to simulate and what to measure.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "anycast/deployment.h"
#include "atlas/population.h"
#include "attack/botnet.h"
#include "attack/schedule.h"
#include "attack/traffic.h"
#include "bgp/collector.h"
#include "fault/schedule.h"
#include "net/clock.h"
#include "playbook/rules.h"
#include "resolver/population.h"

namespace rootstress::sim {

/// Everything a simulation run needs.
struct ScenarioConfig {
  std::uint64_t seed = 42;

  /// Worker lanes for the engine's parallel phases (fluid stepping and
  /// Atlas probing). <= 0 = auto: ROOTSTRESS_THREADS from the
  /// environment, else hardware_concurrency. 1 = the exact serial legacy
  /// path (no pool, no synchronization). At most util::kMaxThreads.
  /// Results are bit-identical for every value — see "Performance &
  /// threading model" in DESIGN.md.
  int threads = 0;

  anycast::RootDeployment::Config deployment{};
  attack::BotnetConfig botnet{};
  attack::LegitConfig legit{};
  attack::AttackSchedule schedule{};  ///< empty = quiet days

  /// Simulated span. Negative start covers baseline days before the
  /// event (RSSAC baselines); time 0 is 2015-11-30T00:00Z.
  net::SimTime start{0};
  net::SimTime end = net::SimTime::from_hours(48);
  net::SimTime step = net::SimTime::from_seconds(60);

  /// Measurement: Atlas population and which letters its VPs probe
  /// (empty = all thirteen). Probing runs only inside `probe_window`.
  atlas::PopulationConfig population{};
  std::vector<char> probe_letters{};
  net::SimInterval probe_window{net::SimTime(0),
                                net::SimTime::from_hours(48)};
  bool collect_records = true;

  /// Analysis bin width (the paper's 10 minutes).
  net::SimTime bin_width = net::SimTime::from_minutes(10);

  bool collect_rssac = true;
  bool enable_collector = true;
  bgp::CollectorConfig collector{};

  /// Background route churn: per-step probability that some random site
  /// undergoes a short maintenance flap (Fig 9's quiet-period noise).
  double maintenance_flap_per_step = 0.002;

  /// Adaptive defense (the paper's future-work direction, §2.2/§5): when
  /// set, an omniscient per-letter controller overrides the sites' own
  /// stress policies each step, withdrawing exactly the overloaded sites
  /// whose catchments the rest of the letter can absorb (anycast::advise).
  bool adaptive_defense = false;

  /// Reactive defense playbook: a closed-loop controller (detect ->
  /// decide -> actuate) driven only by operator-visible observables. Runs
  /// in the engine's serial defense phase; sites it withdraws are held
  /// against the static stress policies. nullopt = no controller at all
  /// (distinct from an absorb-only playbook, which detects but never
  /// acts).
  std::optional<playbook::Playbook> playbook;

  /// Deterministic fault/pulse-wave chaos schedule: attack envelopes that
  /// override `schedule` inside their windows, site hardware failures,
  /// BGP session resets, Atlas VP dropouts, telemetry gaps, and legit
  /// flash crowds. Applied in the engine's serial defense-injection
  /// phase; empty (the default) injects nothing.
  fault::FaultSchedule fault_schedule{};

  /// In-loop recursive-resolver population (the paper's §2.3/§6 client
  /// side): a fleet of caching, retrying resolvers stepped between
  /// modeled clients and the root, fed the letters' live answered
  /// fractions each step. Purely observational for the server side —
  /// every server-facing series is bit-identical with the population on
  /// or off — but produces the user-experience report
  /// (SimulationResult::enduser). nullopt = no client modeling.
  std::optional<resolver::PopulationConfig> resolver_profile;

  /// Telemetry (obs::Runtime): metrics + trace + phase profile, carried
  /// on SimulationResult::telemetry. Write-only with respect to the
  /// simulation, so results are bit-identical either way; turn off for
  /// benchmarks that want the truly minimal hot path.
  bool telemetry = true;
};

/// Reads ROOTSTRESS_VPS (a positive int) from the environment, else
/// returns `fallback` (benches use this so users can re-run at full
/// Atlas scale).
int vp_count_from_env(int fallback);

/// Validates a configuration; returns an empty string when it is usable,
/// else a description of the first problem. SimulationEngine rejects
/// invalid configs with std::invalid_argument carrying this message.
std::string validate(const ScenarioConfig& config);

}  // namespace rootstress::sim
