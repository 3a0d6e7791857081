// Closed-loop playbook integration: a reactive controller bolted onto
// the 2015 event scenario must (a) change the outcome the paper measures
// (per-letter answered fraction) relative to pure absorption, (b) stay
// bit-identical across engine thread counts, (c) outrank a static policy
// regime on the sites it holds, (d) respect the last-global-site veto
// and leave an observable record of it, and (e) sweep as a first-class
// campaign axis with distinct cached digests per plan. The static policy
// path shares that veto, and is checked on its own with no playbook.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "anycast/letter.h"
#include "core/whatif.h"
#include "obs/runtime.h"
#include "sim/engine.h"
#include "sim/scenario_builder.h"
#include "sweep/runner.h"

namespace rootstress {
namespace {

sim::ScenarioConfig event_scenario(int threads = 1) {
  // Event 1 only (06:50-09:30), fluid passes only, RRL off so layered
  // plans that enable it actually change something.
  return sim::ScenarioBuilder::november_2015()
      .fluid_only()
      .topology_stubs(200)
      .duration(net::SimTime::from_hours(10))
      .rrl_enabled(false)
      .threads(threads)
      .build();
}

/// Aggregate served fraction of legit traffic over the attack windows,
/// summed across the attacked letters.
double attacked_served_fraction(const sim::SimulationResult& result,
                                const attack::AttackSchedule& schedule) {
  const auto letter_table = anycast::root_letter_table(0);
  double served = 0.0;
  double failed = 0.0;
  for (const auto& entry : letter_table) {
    if (!entry.attacked) continue;
    const int s = result.service_index(entry.letter);
    if (s < 0) continue;
    for (const auto& event : schedule.events()) {
      served += core::mean_qps_over(
          result.service_served_legit_qps[static_cast<std::size_t>(s)],
          event.when);
      failed += core::mean_qps_over(
          result.service_failed_legit_qps[static_cast<std::size_t>(s)],
          event.when);
    }
  }
  const double total = served + failed;
  return total > 0.0 ? served / total : 1.0;
}

/// A plan that tries to withdraw every site the moment it shows any
/// loss — guaranteed to walk a letter down to its last global site.
playbook::Playbook withdraw_everything() {
  playbook::Playbook p;
  p.name = "withdraw-everything";
  p.signals.on_loss = 0.02;
  p.signals.off_loss = 0.01;
  p.signals.confirm_steps = 1;
  p.signals.ema_alpha = 1.0;
  p.rules.push_back(playbook::Rule{
      "withdraw-all",
      playbook::Trigger::loss_above(0.02, /*for_steps=*/1),
      playbook::Action::withdraw_site(),
      net::SimTime(0),
  });
  return p;
}

TEST(PlaybookIntegration, WithdrawAtThresholdChangesAnsweredFraction) {
  sim::ScenarioConfig absorb = event_scenario();
  absorb.playbook = playbook::Playbook::absorb_only();
  sim::SimulationEngine absorb_engine(absorb);
  const sim::SimulationResult absorbed = absorb_engine.run();

  sim::ScenarioConfig withdraw = event_scenario();
  withdraw.playbook = playbook::Playbook::withdraw_at_threshold(0.35);
  sim::SimulationEngine withdraw_engine(withdraw);
  const sim::SimulationResult withdrawn = withdraw_engine.run();

  // The monitor-only arm detects but never pulls a knob.
  EXPECT_GT(absorbed.playbook.detections, 0u);
  EXPECT_EQ(absorbed.playbook.activations, 0u);
  EXPECT_EQ(absorbed.playbook.first_activation_ms, -1);

  // The reactive arm withdraws (site-level losses pass 35% during the
  // event) and that changes the paper's headline metric.
  EXPECT_GT(withdrawn.playbook.activations, 0u);
  EXPECT_GE(withdrawn.playbook.first_activation_ms, 0);
  const double f_absorb = attacked_served_fraction(absorbed, absorb.schedule);
  const double f_withdraw =
      attacked_served_fraction(withdrawn, withdraw.schedule);
  EXPECT_NE(f_absorb, f_withdraw);

  // Detection lagged the first raw evidence by the confirm latency.
  EXPECT_GE(withdrawn.playbook.detection_lag_ms(), 0);
}

TEST(PlaybookIntegration, ControllerIsBitIdenticalAcrossThreadCounts) {
  sim::ScenarioConfig serial_config = event_scenario(/*threads=*/1);
  serial_config.playbook = playbook::Playbook::withdraw_at_threshold(0.35);
  sim::ScenarioConfig pooled_config = event_scenario(/*threads=*/4);
  pooled_config.playbook = playbook::Playbook::withdraw_at_threshold(0.35);

  sim::SimulationEngine serial_engine(serial_config);
  const sim::SimulationResult serial = serial_engine.run();
  sim::SimulationEngine pooled_engine(pooled_config);
  const sim::SimulationResult pooled = pooled_engine.run();
  ASSERT_EQ(serial_engine.thread_count(), 1);
  ASSERT_EQ(pooled_engine.thread_count(), 4);

  // Controller decisions and their timing are identical...
  EXPECT_TRUE(serial.playbook == pooled.playbook);
  ASSERT_GT(serial.playbook.activations, 0u);

  // ...and so is everything downstream of the actuations.
  ASSERT_EQ(serial.site_loss_fraction.size(), pooled.site_loss_fraction.size());
  for (std::size_t i = 0; i < serial.site_loss_fraction.size(); ++i) {
    const auto& a = serial.site_loss_fraction[i];
    const auto& b = pooled.site_loss_fraction[i];
    ASSERT_EQ(a.bin_count(), b.bin_count());
    for (std::size_t bin = 0; bin < a.bin_count(); ++bin) {
      ASSERT_EQ(a.sum(bin), b.sum(bin)) << "site " << i << " bin " << bin;
      ASSERT_EQ(a.count(bin), b.count(bin)) << "site " << i << " bin " << bin;
    }
  }
  ASSERT_EQ(serial.route_changes.size(), pooled.route_changes.size());
  for (std::size_t i = 0; i < serial.route_changes.size(); ++i) {
    ASSERT_EQ(serial.route_changes[i].time.ms, pooled.route_changes[i].time.ms);
    ASSERT_EQ(serial.route_changes[i].new_site,
              pooled.route_changes[i].new_site);
  }
}

TEST(PlaybookIntegration, PlaybookOutranksStaticRegimeAndVetoIsObservable) {
  // Force the all-absorb regime, then hand the playbook the opposite
  // plan: reactive decisions must win on the sites they hold, and the
  // letter-preserving veto must stop the last global site from going
  // dark — leaving both a counter and a trace event behind.
  sim::ScenarioConfig config = event_scenario();
  core::apply_policy_regime(config, core::PolicyRegime::kAllAbsorb);
  ASSERT_TRUE(config.deployment.force_policy.has_value());
  config.playbook = withdraw_everything();

  sim::SimulationEngine engine(config);
  const sim::SimulationResult result = engine.run();

  // Withdrawals happened despite the absorb regime.
  EXPECT_GT(result.playbook.activations, 0u);
  // The walk-down hit at least one letter's last global site.
  ASSERT_GT(result.playbook.vetoes, 0u);

  // Satellite: the veto is observable as a counter and a trace event.
  double veto_counter_total = 0.0;
  for (const auto& sample : result.telemetry.metrics) {
    if (sample.name == "policy.withdraw_veto") veto_counter_total += sample.value;
  }
  EXPECT_GT(veto_counter_total, 0.0);
  const auto* playbook_vetoes = result.telemetry.find_metric("playbook.vetoes");
  ASSERT_NE(playbook_vetoes, nullptr);
  EXPECT_DOUBLE_EQ(playbook_vetoes->value,
                   static_cast<double>(result.playbook.vetoes));

  obs::Runtime* obs = engine.telemetry_runtime();
  ASSERT_NE(obs, nullptr);
  bool saw_veto_event = false;
  bool saw_detection_event = false;
  for (const auto& event : obs->trace().events()) {
    if (event.type == obs::TraceEventType::kWithdrawVeto) saw_veto_event = true;
    if (event.type == obs::TraceEventType::kPlaybookDetection) {
      saw_detection_event = true;
    }
  }
  EXPECT_TRUE(saw_veto_event);
  EXPECT_TRUE(saw_detection_event);
}

TEST(StaticPolicyVeto, AllWithdrawRegimeKeepsLastGlobalSiteObservably) {
  // No playbook: the forced all-withdraw regime alone walks the attacked
  // letters down, and the static path's veto must keep each one's last
  // global site up — leaving both a counter and a trace event behind.
  sim::ScenarioConfig config = event_scenario();
  core::apply_policy_regime(config, core::PolicyRegime::kAllWithdraw);

  sim::SimulationEngine engine(config);
  const sim::SimulationResult result = engine.run();

  double veto_counter_total = 0.0;
  for (const auto& sample : result.telemetry.metrics) {
    if (sample.name == "policy.withdraw_veto") veto_counter_total += sample.value;
  }
  EXPECT_GT(veto_counter_total, 0.0);
  EXPECT_EQ(result.playbook.vetoes, 0u);

  obs::Runtime* obs = engine.telemetry_runtime();
  ASSERT_NE(obs, nullptr);
  bool saw_veto_event = false;
  for (const auto& event : obs->trace().events()) {
    if (event.type == obs::TraceEventType::kWithdrawVeto) saw_veto_event = true;
  }
  EXPECT_TRUE(saw_veto_event);
}

TEST(PlaybookIntegration, CampaignSweepsPlaybooksWithDistinctCachedDigests) {
  const std::filesystem::path cache_dir =
      std::filesystem::path(::testing::TempDir()) / "rs_playbook_campaign";
  std::filesystem::remove_all(cache_dir);

  sweep::Campaign campaign;
  campaign.name = "playbook-duel";
  campaign.base = event_scenario();
  campaign.add(sweep::Axis::playbook({
      playbook::Playbook::absorb_only(),
      playbook::Playbook::withdraw_at_threshold(0.35),
      playbook::Playbook::layered_defense(0.35),
  }));

  sweep::CampaignOptions options;
  options.cache_dir = cache_dir;
  options.telemetry = false;
  const sweep::CampaignResult cold = run_campaign(campaign, options);
  ASSERT_EQ(cold.cells.size(), 3u);
  EXPECT_EQ(cold.executed, 3u);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_stats.stores, 3u);

  // Three plans, three cache identities.
  std::set<std::uint64_t> keys;
  for (const auto& cell : cold.cells) keys.insert(cell.key);
  EXPECT_EQ(keys.size(), 3u);
  EXPECT_EQ(cold.cells[0].label, "playbook=absorb-only");
  EXPECT_EQ(cold.cells[1].label, "playbook=withdraw-at-threshold");
  EXPECT_EQ(cold.cells[2].label, "playbook=layered-rrl-withdraw");

  // The reactive plans actually acted; monitor-only did not.
  EXPECT_EQ(cold.cells[0].summary.playbook_activations, 0u);
  EXPECT_EQ(cold.cells[0].summary.time_to_mitigation_ms, -1);
  EXPECT_GT(cold.cells[1].summary.playbook_activations, 0u);
  EXPECT_GT(cold.cells[1].summary.time_to_mitigation_ms, 0);
  EXPECT_GT(cold.cells[2].summary.playbook_activations, 0u);
  // Distinct plans leave distinct digests, not just distinct keys.
  EXPECT_FALSE(summary_to_json(cold.cells[0].summary).dump() ==
                   summary_to_json(cold.cells[1].summary).dump() &&
               summary_to_json(cold.cells[1].summary).dump() ==
                   summary_to_json(cold.cells[2].summary).dump());

  // Warm rerun: every cell served from the cache, summaries identical.
  const sweep::CampaignResult warm = run_campaign(campaign, options);
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_EQ(warm.cache_hits, 3u);
  for (std::size_t i = 0; i < warm.cells.size(); ++i) {
    EXPECT_TRUE(warm.cells[i].summary == cold.cells[i].summary) << i;
  }

  // The cache-stats line rides along in the JSON export.
  const obs::JsonValue doc = warm.to_json();
  const obs::JsonValue* cache_doc = doc.find("cache");
  ASSERT_NE(cache_doc, nullptr);
  ASSERT_NE(cache_doc->find("hits"), nullptr);
  EXPECT_DOUBLE_EQ(cache_doc->find("hits")->as_number(), 3.0);

  std::filesystem::remove_all(cache_dir);
}

}  // namespace
}  // namespace rootstress
