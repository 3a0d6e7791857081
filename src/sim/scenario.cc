#include "sim/scenario.h"

#include <cstdint>
#include <limits>
#include <string>

#include "util/env.h"
#include "util/parallel.h"

namespace rootstress::sim {

std::string validate(const ScenarioConfig& config) {
  if (!(config.start < config.end)) {
    return "scenario span is empty (start >= end)";
  }
  if (config.step.ms <= 0) return "step must be positive";
  if (config.bin_width.ms <= 0) return "bin width must be positive";
  if (config.step.ms > config.bin_width.ms) {
    return "step must not exceed the analysis bin width";
  }
  if (config.threads > util::kMaxThreads) {
    return "threads exceeds " + std::to_string(util::kMaxThreads);
  }
  if (config.population.vp_count < 0) return "negative VP count";
  if (config.probe_window.end < config.probe_window.begin) {
    return "probe window ends before it begins";
  }
  if (config.maintenance_flap_per_step < 0.0 ||
      config.maintenance_flap_per_step > 1.0) {
    return "maintenance flap probability must be within [0, 1]";
  }
  if (!(config.deployment.capacity_scale > 0.0)) {
    return "capacity scale must be positive";
  }
  if (const auto& syn = config.deployment.synthetic; syn.has_value()) {
    // Probe records carry the site id as an int16_t; past its range they
    // would hold wrapped ids.
    constexpr std::int64_t kMaxSites = std::numeric_limits<std::int16_t>::max();
    if (std::int64_t{syn->services} * syn->sites_per_service > kMaxSites) {
      return "synthetic deployment exceeds " + std::to_string(kMaxSites) +
             " sites (services x sites_per_service)";
    }
  }
  for (const auto& event : config.schedule.events()) {
    if (!(event.when.begin < event.when.end)) {
      return "attack event has a non-positive duration";
    }
    if (event.per_letter_qps < 0.0) return "negative attack rate";
  }
  if (config.playbook.has_value()) {
    if (std::string problem = playbook::validate(*config.playbook);
        !problem.empty()) {
      return "playbook: " + problem;
    }
    if (config.adaptive_defense) {
      return "playbook and adaptive_defense are mutually exclusive "
             "controllers; enable one";
    }
  }
  if (!config.fault_schedule.empty()) {
    if (std::string problem = fault::validate(config.fault_schedule);
        !problem.empty()) {
      return "fault_schedule: " + problem;
    }
  }
  if (config.resolver_profile.has_value()) {
    if (std::string problem =
            resolver::validate_population(*config.resolver_profile);
        !problem.empty()) {
      return "resolver_profile: " + problem;
    }
  }
  return {};
}

int vp_count_from_env(int fallback) {
  const auto env = util::env_integer("ROOTSTRESS_VPS", 1,
                                     std::numeric_limits<int>::max());
  return env ? static_cast<int>(*env) : fallback;
}

}  // namespace rootstress::sim
