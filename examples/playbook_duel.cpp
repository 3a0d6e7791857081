// Playbook duel: three written-down reaction plans against the Nov 30
// event — absorb-only (the paper's 2015 baseline), withdraw-at-threshold,
// and a layered RRL-then-withdraw plan — compared on the metric the
// paper measures: per-letter answered fraction during the attack.
//
// Usage:
//   ./build/examples/playbook_duel [--cache DIR] [--quick]
//
// Prints a per-attacked-letter served-fraction table for the three arms
// plus each plan's controller digest (activations, vetoes, detection
// lag, time to mitigation), then asserts the subsystem's contract:
//   1. the reactive plan changes the answered fraction vs absorb-only,
//   2. controller decisions are bit-identical at 1 and 4 engine threads,
//   3. a campaign sweeping the three playbooks yields three distinct
//      cached digests cold and a fully warm second pass.
// Exits non-zero when any of those fail (scripts/check.sh runs this).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "rootstress.h"

using namespace rootstress;

namespace {

sim::ScenarioConfig duel_base(int stubs, int threads = 0) {
  // Fluid-only and RRL initially off, so the layered plan's enable_rrl
  // rung is a real state change.
  return sim::ScenarioBuilder::november_2015()
      .fluid_only()
      .topology_stubs(stubs)
      .duration(net::SimTime::from_hours(12))
      .rrl_enabled(false)
      .threads(threads)
      .build();
}

std::int64_t attack_onset_ms(const attack::AttackSchedule& schedule) {
  std::int64_t onset = schedule.events().front().when.begin.ms;
  for (const auto& event : schedule.events()) {
    onset = std::min(onset, event.when.begin.ms);
  }
  return onset;
}

struct Arm {
  playbook::Playbook plan;
  sim::SimulationResult result;
  double mean_attacked_served = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path cache_dir;
  int stubs = 300;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      stubs = 200;
    }
  }
  bool ok = true;

  // --- The duel: three plans, one event. -------------------------------
  std::vector<Arm> arms;
  for (const playbook::Playbook& plan :
       {playbook::Playbook::absorb_only(),
        playbook::Playbook::withdraw_at_threshold(0.35),
        playbook::Playbook::layered_defense(0.35)}) {
    sim::ScenarioConfig config = duel_base(stubs);
    config.playbook = plan;
    sim::SimulationEngine engine(config);
    arms.push_back(Arm{plan, engine.run()});
  }
  const sim::ScenarioConfig reference = duel_base(stubs);

  std::printf("answered fraction of legit queries during the events\n");
  std::printf("%-8s", "letter");
  for (const Arm& arm : arms) std::printf("  %22s", arm.plan.name.c_str());
  std::printf("\n");
  std::vector<net::SimInterval> windows;
  for (const auto& event : reference.schedule.events()) {
    windows.push_back(event.when);
  }
  const auto letter_table = anycast::root_letter_table(0);
  for (const auto& entry : letter_table) {
    if (!entry.attacked) continue;
    const int service = arms[0].result.service_index(entry.letter);
    if (service < 0) continue;
    std::printf("%-8c", entry.letter);
    for (Arm& arm : arms) {
      const double fraction =
          core::served_fraction(arm.result, service, windows);
      arm.mean_attacked_served += fraction;
      std::printf("  %22.4f", fraction);
    }
    std::printf("\n");
  }

  const std::int64_t onset = attack_onset_ms(reference.schedule);
  for (Arm& arm : arms) {
    const auto& stats = arm.result.playbook;
    const std::int64_t mitigation =
        stats.first_activation_ms >= 0 ? stats.first_activation_ms - onset : -1;
    std::printf(
        "plan %-24s activations=%llu vetoes=%llu detection_lag_ms=%lld "
        "time_to_mitigation_ms=%lld\n",
        arm.plan.name.c_str(),
        static_cast<unsigned long long>(stats.activations),
        static_cast<unsigned long long>(stats.vetoes),
        static_cast<long long>(stats.detection_lag_ms()),
        static_cast<long long>(mitigation));
  }

  // 1. The reactive plan must change the paper's headline number.
  if (arms[1].result.playbook.activations == 0) {
    std::printf("FAIL: withdraw-at-threshold never actuated\n");
    ok = false;
  }
  if (arms[0].mean_attacked_served == arms[1].mean_attacked_served) {
    std::printf("FAIL: withdrawing changed nothing vs absorb-only\n");
    ok = false;
  }

  // 2. Thread-count invariance of the whole closed loop.
  sim::ScenarioConfig serial_config = duel_base(stubs, /*threads=*/1);
  serial_config.playbook = playbook::Playbook::withdraw_at_threshold(0.35);
  sim::ScenarioConfig pooled_config = duel_base(stubs, /*threads=*/4);
  pooled_config.playbook = playbook::Playbook::withdraw_at_threshold(0.35);
  sim::SimulationEngine serial_engine(serial_config);
  const sim::SimulationResult serial = serial_engine.run();
  sim::SimulationEngine pooled_engine(pooled_config);
  const sim::SimulationResult pooled = pooled_engine.run();
  bool identical = serial.playbook == pooled.playbook;
  if (identical) {
    for (std::size_t i = 0; i < serial.site_loss_fraction.size(); ++i) {
      const auto& a = serial.site_loss_fraction[i];
      const auto& b = pooled.site_loss_fraction[i];
      for (std::size_t bin = 0; identical && bin < a.bin_count(); ++bin) {
        identical = a.sum(bin) == b.sum(bin) && a.count(bin) == b.count(bin);
      }
    }
  }
  std::printf("threads 1 vs 4: %s\n",
              identical ? "bit-identical" : "DIVERGED");
  if (!identical) ok = false;

  // 3. Playbooks as a campaign axis with distinct cached digests.
  const bool temp_cache = cache_dir.empty();
  if (temp_cache) {
    cache_dir =
        std::filesystem::temp_directory_path() / "rs_playbook_duel_cache";
    std::filesystem::remove_all(cache_dir);
  }
  sweep::Campaign campaign;
  campaign.name = "playbook-duel";
  campaign.base = duel_base(stubs);
  campaign.add(sweep::Axis::playbook({
      playbook::Playbook::absorb_only(),
      playbook::Playbook::withdraw_at_threshold(0.35),
      playbook::Playbook::layered_defense(0.35),
  }));
  sweep::CampaignOptions options;
  options.cache_dir = cache_dir;
  const sweep::CampaignResult cold = rootstress::run_campaign(campaign, options);
  const sweep::CampaignResult warm = rootstress::run_campaign(campaign, options);
  std::set<std::uint64_t> keys;
  for (const auto& cell : cold.cells) keys.insert(cell.key);
  std::printf(
      "campaign: cells=%zu distinct_keys=%zu cold_executed=%zu "
      "warm_cache_hits=%zu\n",
      cold.cells.size(), keys.size(), cold.executed, warm.cache_hits);
  if (keys.size() != cold.cells.size() || warm.cache_hits != cold.cells.size()) {
    std::printf("FAIL: playbook axis did not cache three distinct digests\n");
    ok = false;
  }
  if (temp_cache) std::filesystem::remove_all(cache_dir);

  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
