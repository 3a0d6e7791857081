#include "sim/scenario_builder.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "attack/events2015.h"
#include "attack/events2016.h"

namespace rootstress::sim {

ScenarioBuilder ScenarioBuilder::november_2015() {
  return quiet_days().schedule(attack::events_of_november_2015(5e6));
}

ScenarioBuilder ScenarioBuilder::quiet_days() {
  // The default two-day span and probe window, no attack schedule, and
  // the presets' shared 1200-VP population, so per-site medians compare
  // across presets.
  ScenarioConfig config;
  config.population.vp_count = 1200;
  return ScenarioBuilder(std::move(config));
}

ScenarioBuilder ScenarioBuilder::events_2016() {
  return quiet_days().schedule(attack::events_of_june_2016(6e6));
}

ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t seed) {
  config_.seed = seed;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::threads(int threads) {
  config_.threads = threads;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::telemetry(bool enabled) {
  config_.telemetry = enabled;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::deployment(
    anycast::RootDeployment::Config config) {
  config_.deployment = std::move(config);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::capacity_scale(double scale) {
  config_.deployment.capacity_scale = scale;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::topology_stubs(int stub_count) {
  config_.deployment.topology.stub_count = stub_count;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::synthetic_topology(int n_ases, int n_sites,
                                                     double tiering) {
  anycast::SyntheticDeployment syn;
  syn.services = 1;
  syn.sites_per_service = n_sites;
  syn.global_fraction = tiering;
  config_.deployment.synthetic = syn;
  config_.deployment.include_nl = false;
  // Size the synthesized hierarchy to ~n_ases total ASes: fixed tier-1
  // clique, tier-2 transit scaled with the target, the rest stubs. The
  // topology synthesizer spreads tier-2s over seven regions; site host
  // ASes (one per site) ride on top.
  bgp::TopologyConfig& topo = config_.deployment.topology;
  constexpr int kRegions = 7;
  topo.tier1_count = 10;
  topo.tier2_per_region = std::clamp(n_ases / 250, 8, 64);
  const int overhead =
      topo.tier1_count + kRegions * topo.tier2_per_region + n_sites;
  topo.stub_count = std::max(64, n_ases - overhead);
  config_.probe_letters = {'A'};
  config_.collect_rssac = false;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::force_policy(anycast::StressPolicy policy) {
  config_.deployment.force_policy = policy;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::adaptive_defense(bool enabled) {
  config_.adaptive_defense = enabled;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::playbook(playbook::Playbook playbook) {
  config_.playbook = std::move(playbook);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::rrl_enabled(bool enabled) {
  config_.deployment.rrl_enabled = enabled;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::schedule(attack::AttackSchedule schedule) {
  config_.schedule = std::move(schedule);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fault_schedule(fault::FaultSchedule schedule) {
  config_.fault_schedule = std::move(schedule);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::resolver_profile(
    resolver::PopulationConfig profile) {
  config_.resolver_profile = std::move(profile);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::attack_qps(double per_letter_qps) {
  attack_qps_ = per_letter_qps;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::botnet(attack::BotnetConfig config) {
  config_.botnet = config;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::legit(attack::LegitConfig config) {
  config_.legit = config;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::maintenance_flap(
    double per_step_probability) {
  config_.maintenance_flap_per_step = per_step_probability;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::span(net::SimTime start, net::SimTime end) {
  config_.start = start;
  config_.end = end;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::duration(net::SimTime length) {
  config_.end = config_.start + length;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::step(net::SimTime step) {
  config_.step = step;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::bin_width(net::SimTime width) {
  config_.bin_width = width;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::include_baseline_week(bool include) {
  include_baseline_week_ = include;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::vp_count(int count) {
  config_.population.vp_count = count;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::population(atlas::PopulationConfig config) {
  config_.population = config;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::probe_letters(std::vector<char> letters) {
  config_.probe_letters = std::move(letters);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::probe_window(net::SimInterval window) {
  config_.probe_window = window;
  probe_window_set_ = true;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::collect_records(bool enabled) {
  config_.collect_records = enabled;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::collect_rssac(bool enabled) {
  config_.collect_rssac = enabled;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::enable_collector(bool enabled) {
  config_.enable_collector = enabled;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fluid_only() {
  config_.collect_records = false;
  config_.enable_collector = false;
  config_.collect_rssac = false;
  return *this;
}

ScenarioConfig ScenarioBuilder::resolve() const {
  ScenarioConfig config = config_;
  if (include_baseline_week_ && config.start > net::SimTime::from_hours(-7 * 24)) {
    config.start = net::SimTime::from_hours(-7 * 24);
  }
  if (attack_qps_.has_value()) {
    std::vector<attack::AttackEvent> events = config.schedule.events();
    for (auto& event : events) event.per_letter_qps = *attack_qps_;
    config.schedule = attack::AttackSchedule(std::move(events));
  }
  if (!probe_window_set_) {
    // Clamp the (preset) window into the simulated span so shortening a
    // run does not require restating the window.
    config.probe_window.begin =
        std::max(config.probe_window.begin, config.start);
    config.probe_window.end = std::min(config.probe_window.end, config.end);
    config.probe_window.end =
        std::max(config.probe_window.end, config.probe_window.begin);
  }
  return config;
}

std::string ScenarioBuilder::validate() const {
  const ScenarioConfig config = resolve();
  if (std::string problem = sim::validate(config); !problem.empty()) {
    return problem;
  }
  // Cross-field invariants beyond what the engine has always enforced;
  // each of these mis-simulates silently rather than crashing.
  if (config.bin_width.ms % config.step.ms != 0) {
    return "bin width must be a whole multiple of the step";
  }
  if (config.probe_window.begin < config.start ||
      config.probe_window.end > config.end) {
    return "probe window must lie inside the simulated span";
  }
  return {};
}

ScenarioConfig ScenarioBuilder::build() const {
  if (std::string problem = validate(); !problem.empty()) {
    throw std::invalid_argument("ScenarioBuilder: " + problem);
  }
  return resolve();
}

std::optional<ScenarioConfig> ScenarioBuilder::try_build(
    std::string* error) const {
  std::string problem = validate();
  if (!problem.empty()) {
    if (error != nullptr) *error = std::move(problem);
    return std::nullopt;
  }
  return resolve();
}

}  // namespace rootstress::sim
