#include "core/whatif.h"

#include "analysis/route_changes.h"
#include "attack/events2015.h"
#include "sim/engine.h"

namespace rootstress::core {

std::string to_string(PolicyRegime regime) {
  switch (regime) {
    case PolicyRegime::kAsDeployed: return "as-deployed";
    case PolicyRegime::kAllAbsorb: return "all-absorb";
    case PolicyRegime::kAllWithdraw: return "all-withdraw";
    case PolicyRegime::kOracle: return "oracle-advisor";
  }
  return "?";
}

double mean_qps_over(const util::BinnedSeries& series,
                     net::SimInterval window) {
  double total = 0.0;
  int bins = 0;
  for (std::size_t b = 0; b < series.bin_count(); ++b) {
    const net::SimTime begin(series.bin_start(b));
    const net::SimTime end(begin.ms + series.bin_ms());
    if (window.begin < end && begin < window.end) {
      total += series.mean(b);
      ++bins;
    }
  }
  return bins == 0 ? 0.0 : total / bins;
}

double served_fraction(const sim::SimulationResult& result, int service,
                       std::span<const net::SimInterval> windows) {
  const auto& served =
      result.service_served_legit_qps[static_cast<std::size_t>(service)];
  const auto& failed =
      result.service_failed_legit_qps[static_cast<std::size_t>(service)];
  double served_sum = 0.0;
  double failed_sum = 0.0;
  for (const net::SimInterval& window : windows) {
    served_sum += mean_qps_over(served, window);
    failed_sum += mean_qps_over(failed, window);
  }
  const double total = served_sum + failed_sum;
  return total > 0.0 ? served_sum / total : 1.0;
}

void apply_policy_regime(sim::ScenarioConfig& config, PolicyRegime regime) {
  switch (regime) {
    case PolicyRegime::kAsDeployed:
      break;
    case PolicyRegime::kAllAbsorb:
      config.deployment.force_policy = anycast::StressPolicy::absorber();
      break;
    case PolicyRegime::kAllWithdraw: {
      anycast::StressPolicy policy = anycast::StressPolicy::withdrawer();
      policy.withdraw_overload = 1.5;
      policy.session_failure_per_minute = 0.10;
      config.deployment.force_policy = policy;
      break;
    }
    case PolicyRegime::kOracle:
      config.adaptive_defense = true;
      break;
  }
}

namespace {

RegimeOutcome run_regime(sim::ScenarioConfig config, PolicyRegime regime) {
  apply_policy_regime(config, regime);
  config.collect_records = false;  // fluid comparison only
  config.enable_collector = false;
  config.collect_rssac = false;

  sim::SimulationEngine engine(std::move(config));
  const sim::SimulationResult result = engine.run();

  RegimeOutcome outcome;
  outcome.regime = regime;
  const auto& letters = engine.deployment().letters();
  double sum1 = 0.0, sum2 = 0.0;
  int attacked = 0;
  for (const auto& cfg : letters) {
    const int s = result.service_index(cfg.letter);
    if (s < 0) continue;
    RegimeLetterOutcome lo;
    lo.letter = cfg.letter;
    lo.served_fraction_event1 =
        served_fraction(result, s, {&attack::kEvent1, 1});
    lo.served_fraction_event2 =
        served_fraction(result, s, {&attack::kEvent2, 1});
    lo.route_changes =
        static_cast<int>(analysis::route_change_count(result, s));
    if (cfg.attacked) {
      sum1 += lo.served_fraction_event1;
      sum2 += lo.served_fraction_event2;
      ++attacked;
    }
    outcome.letters.push_back(lo);
  }
  if (attacked > 0) {
    outcome.mean_served_event1 = sum1 / attacked;
    outcome.mean_served_event2 = sum2 / attacked;
  }
  outcome.total_route_changes = result.route_changes.size();
  return outcome;
}

}  // namespace

std::vector<RegimeOutcome> compare_policy_regimes(
    const sim::ScenarioConfig& config) {
  return {run_regime(config, PolicyRegime::kAsDeployed),
          run_regime(config, PolicyRegime::kAllAbsorb),
          run_regime(config, PolicyRegime::kAllWithdraw),
          run_regime(config, PolicyRegime::kOracle)};
}

}  // namespace rootstress::core
