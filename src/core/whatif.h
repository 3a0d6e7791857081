// What-if policy experiments (§5 / §2.2 future work).
//
// The paper closes by calling for "alternative policies that may improve
// resilience". This module re-runs a scenario under forced site policies
// and compares outcomes, quantifying the withdraw-vs-absorb trade-off on
// the full deployment instead of the 3-site thought experiment:
//   - kAsDeployed: the letters' historical policy mix
//   - kAllAbsorb:  every site is a committed absorber (never withdraws)
//   - kAllWithdraw: every overloaded site withdraws aggressively
//   - kOracle:     per-step omniscient advice from anycast::advise
#pragma once

#include <span>
#include <string>
#include <vector>

#include "sim/scenario.h"
#include "util/time_series.h"

namespace rootstress::sim {
struct SimulationResult;
}

namespace rootstress::core {

/// The policy regimes a what-if run can force.
enum class PolicyRegime {
  kAsDeployed,
  kAllAbsorb,
  kAllWithdraw,
  kOracle,  ///< live anycast::advise controller (adaptive defense)
};

std::string to_string(PolicyRegime regime);

/// Rewrites `config` so the engine simulates `regime`: forces the
/// matching per-site stress policy, or switches on the adaptive-defense
/// controller for kOracle. kAsDeployed leaves the config untouched. This
/// is the single place regimes map onto engine knobs — the what-if
/// comparison and the sweep campaign policy axis both go through it.
void apply_policy_regime(sim::ScenarioConfig& config, PolicyRegime regime);

/// Mean of a binned q/s series over `window` (mean of the bin means that
/// overlap it); 0 when no bin overlaps.
double mean_qps_over(const util::BinnedSeries& series, net::SimInterval window);

/// Legit served / (served + failed) of `service`, each side summed over
/// `windows` with mean_qps_over; 1.0 when the windows carry no legit
/// traffic. The one per-letter served-fraction formula: run summaries,
/// the regime comparison and the playbook duel all read it.
double served_fraction(const sim::SimulationResult& result, int service,
                       std::span<const net::SimInterval> windows);

/// Outcome of one regime on one letter.
struct RegimeLetterOutcome {
  char letter = '?';
  double served_fraction_event1 = 0.0;  ///< served/offered legit, event 1
  double served_fraction_event2 = 0.0;
  int route_changes = 0;                ///< routing churn cost
};

/// Outcome of one regime over the whole deployment.
struct RegimeOutcome {
  PolicyRegime regime = PolicyRegime::kAsDeployed;
  std::vector<RegimeLetterOutcome> letters;
  double mean_served_event1 = 0.0;  ///< mean over attacked letters
  double mean_served_event2 = 0.0;
  std::size_t total_route_changes = 0;
};

/// Runs `config` once per regime (probing disabled — this is a fluid
/// study) and reports per-letter legitimate-traffic survival. The
/// scenario's schedule must be the 2015 two-event timeline.
std::vector<RegimeOutcome> compare_policy_regimes(
    const sim::ScenarioConfig& config);

}  // namespace rootstress::core
