#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "anycast/loadbalancer.h"
#include "attack/events2015.h"
#include "obs/profiler.h"
#include "sim/scenario_builder.h"

namespace rootstress::sim {
namespace {

/// A fast scenario: 9 hours covering event 1, two probed letters, a small
/// population and topology.
ScenarioConfig fast_scenario() {
  ScenarioConfig config =
      ScenarioBuilder::november_2015().vp_count(150).build();
  config.deployment.topology.stub_count = 250;
  config.end = net::SimTime::from_hours(10);
  config.probe_window.end = config.end;
  config.probe_letters = {'B', 'K'};
  return config;
}

TEST(Engine, ProducesRecordsAndMetadata) {
  SimulationEngine engine(fast_scenario());
  const auto result = engine.run();
  EXPECT_FALSE(result.records.empty());
  EXPECT_EQ(result.letter_chars.size(), 14u);  // A..M + .nl
  EXPECT_GT(result.sites.size(), 300u);
  EXPECT_EQ(result.vps.size(), 150u);
  EXPECT_EQ(result.service_index('K'), 10);
  EXPECT_EQ(result.service_index('N'), 13);
  EXPECT_EQ(result.service_index('?'), -1);
  ASSERT_NE(result.find_site('K', "AMS"), nullptr);
  EXPECT_EQ(result.find_site('K', "AMS")->label, "K-AMS");
  EXPECT_FALSE(result.sites_of('E').empty());
}

TEST(Engine, OnlyRequestedLettersProbed) {
  SimulationEngine engine(fast_scenario());
  const auto result = engine.run();
  for (const auto& record : result.records) {
    const char letter = result.letter_chars[record.letter_index];
    EXPECT_TRUE(letter == 'B' || letter == 'K');
  }
}

TEST(Engine, CleaningAppliedToRecords) {
  SimulationEngine engine(fast_scenario());
  const auto result = engine.run();
  EXPECT_EQ(result.cleaning.total_vps, 150);
  EXPECT_GT(result.cleaning.kept_vps, 130);
  EXPECT_EQ(result.cleaning.kept_vps + result.cleaning.dropped_old_firmware +
                result.cleaning.dropped_hijacked,
            150);
  EXPECT_EQ(result.records.size(), result.cleaning.kept_records);
}

TEST(Engine, DeterministicForSeed) {
  SimulationEngine a(fast_scenario());
  SimulationEngine b(fast_scenario());
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_EQ(ra.records.size(), rb.records.size());
  for (std::size_t i = 0; i < ra.records.size(); i += 997) {
    EXPECT_EQ(ra.records[i].vp, rb.records[i].vp);
    EXPECT_EQ(ra.records[i].site_id, rb.records[i].site_id);
    EXPECT_EQ(ra.records[i].rtt_ms, rb.records[i].rtt_ms);
  }
  EXPECT_EQ(ra.route_changes.size(), rb.route_changes.size());
}

TEST(Engine, AttackDegradesBAndSparesD) {
  auto config = fast_scenario();
  config.probe_letters = {'B', 'D'};
  SimulationEngine engine(std::move(config));
  const auto result = engine.run();

  // Compare per-service loss via the fluid series: B's served fraction
  // collapses during the event; D's does not.
  auto loss_during_event = [&result](char letter) {
    const int s = result.service_index(letter);
    const auto& offered = result.service_offered_qps[static_cast<std::size_t>(s)];
    const auto& served = result.service_served_qps[static_cast<std::size_t>(s)];
    double worst = 0.0;
    for (std::size_t b = 0; b < offered.bin_count(); ++b) {
      const net::SimTime t(offered.bin_start(b));
      if (!attack::kEvent1.contains(t)) continue;
      if (offered.mean(b) <= 0) continue;
      worst = std::max(worst, 1.0 - served.mean(b) / offered.mean(b));
    }
    return worst;
  };
  EXPECT_GT(loss_during_event('B'), 0.8);
  EXPECT_LT(loss_during_event('D'), 0.3);
}

TEST(Engine, HBackupActivatesWhenPrimaryFails) {
  auto config = fast_scenario();
  config.probe_letters = {'H'};
  SimulationEngine engine(std::move(config));
  const auto result = engine.run();
  // During event 1 some probes must be answered by H-SAN (the backup),
  // which is administratively down in quiet times.
  const auto* san = result.find_site('H', "SAN");
  ASSERT_NE(san, nullptr);
  int san_replies_quiet = 0, san_replies_event = 0;
  for (const auto& record : result.records) {
    if (record.outcome != atlas::ProbeOutcome::kSite ||
        record.site_id != san->site_id) {
      continue;
    }
    if (attack::kEvent1.contains(record.time())) {
      ++san_replies_event;
    } else if (record.time() < attack::kEvent1.begin) {
      ++san_replies_quiet;
    }
  }
  EXPECT_EQ(san_replies_quiet, 0);
  EXPECT_GT(san_replies_event, 0);
}

TEST(Engine, RssacCoversSimulatedDays) {
  auto config = fast_scenario();
  config.start = net::SimTime::from_hours(-24);  // one baseline day
  SimulationEngine engine(std::move(config));
  const auto result = engine.run();
  for (const auto& pub : result.rssac_publishers) {
    EXPECT_TRUE(result.rssac.has(pub.letter_index, -1)) << pub.letter;
    EXPECT_TRUE(result.rssac.has(pub.letter_index, 0)) << pub.letter;
  }
  // Publishers are exactly A, H, J, K, L.
  ASSERT_EQ(result.rssac_publishers.size(), 5u);
}

TEST(Engine, RouteChangesBurstDuringEvent) {
  auto config = fast_scenario();
  config.probe_letters = {};
  config.collect_records = false;  // routing dynamics only
  SimulationEngine engine(std::move(config));
  const auto result = engine.run();
  std::size_t quiet = 0, event = 0;
  for (const auto& change : result.route_changes) {
    if (attack::kEvent1.contains(change.time)) {
      ++event;
    } else {
      ++quiet;
    }
  }
  EXPECT_GT(event, quiet);
  EXPECT_GT(event, 100u);
}

TEST(Engine, ProbeRecordsHaveConsistentFields) {
  SimulationEngine engine(fast_scenario());
  const auto result = engine.run();
  for (const auto& record : result.records) {
    if (record.outcome == atlas::ProbeOutcome::kSite) {
      ASSERT_GE(record.site_id, 0);
      const auto& site = result.sites[static_cast<std::size_t>(record.site_id)];
      EXPECT_EQ(site.letter, result.letter_chars[record.letter_index]);
      EXPECT_GE(record.server, 1);
      EXPECT_LE(record.server, site.servers);
      EXPECT_LT(record.rtt_ms, 5000);
      // The answering server is the balancer's pick for this VP.
      const auto& vp = result.vps[record.vp];
      EXPECT_EQ(record.server,
                anycast::ecmp_pick(vp.address, site.servers,
                                   static_cast<std::uint64_t>(record.site_id)) +
                    1);
    }
  }
}

TEST(Engine, ProbingAllocatesNothingPerRecord) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug builds round-trip every probe through the wire codec";
#else
  if (obs::allocation_count() == 0) {
    GTEST_SKIP() << "allocation hook not active in this binary";
  }
  for (const int threads : {1, 4}) {
    auto config = fast_scenario();
    config.telemetry = true;
    config.threads = threads;
    SimulationEngine engine(std::move(config));
    const auto result = engine.run();
    ASSERT_FALSE(result.records.empty());
    const auto& phases = result.telemetry.phases;
    const auto probing =
        std::find_if(phases.begin(), phases.end(), [](const auto& phase) {
          return phase.name == "atlas-probing";
        });
    ASSERT_NE(probing, phases.end());
    // Per-step costs (pool dispatch, shard buffers growing) are allowed;
    // a per-probe allocation would put this near 1.
    EXPECT_LT(static_cast<double>(probing->allocs) /
                  static_cast<double>(result.records.size()),
              0.05)
        << "threads " << threads << ": " << probing->allocs
        << " allocations for " << result.records.size() << " records";
  }
#endif
}

TEST(Engine, ProbeCadenceMatchesLetterConfig) {
  auto config = fast_scenario();
  config.probe_letters = {'A', 'K'};
  config.schedule = attack::AttackSchedule{};  // quiet: every probe answers
  SimulationEngine engine(std::move(config));
  const auto result = engine.run();

  // Expected probes per VP over 10 h: K every 240 s -> 150; A every
  // 1800 s -> 20.
  std::vector<int> k_counts(result.vps.size(), 0);
  std::vector<int> a_counts(result.vps.size(), 0);
  for (const auto& record : result.records) {
    if (result.letter_chars[record.letter_index] == 'K') {
      ++k_counts[record.vp];
    } else if (result.letter_chars[record.letter_index] == 'A') {
      ++a_counts[record.vp];
    }
  }
  for (std::size_t vp = 0; vp < result.vps.size(); ++vp) {
    if (k_counts[vp] == 0 && a_counts[vp] == 0) continue;  // cleaned away
    EXPECT_NEAR(k_counts[vp], 150, 1) << "vp " << vp;
    EXPECT_NEAR(a_counts[vp], 20, 1) << "vp " << vp;
  }
}

TEST(Engine, ProbeScheduleExactAfterLateWindow) {
  // Probing starts a day into the run, and the window opens mid-step: the
  // first probing step holds probe times before the window that must be
  // skipped without losing the VP's place on its schedule.
  auto config = fast_scenario();
  config.start = net::SimTime::from_hours(-24);
  config.probe_window.begin = net::SimTime::from_seconds(30);
  config.probe_letters = {'A', 'K'};
  ASSERT_TRUE(config.fault_schedule.empty());
  SimulationEngine engine(std::move(config));
  const auto result = engine.run();
  const net::SimInterval window = result.probe_window;

  // (VP, service) -> record times in stream order.
  std::map<std::pair<std::uint32_t, int>, std::vector<std::int64_t>> times;
  for (const auto& record : result.records) {
    times[{record.vp, record.letter_index}].push_back(record.time().ms);
  }
  // Every kept VP probes both letters.
  ASSERT_EQ(times.size(),
            2 * static_cast<std::size_t>(result.cleaning.kept_vps));
  for (const auto& [key, ts] : times) {
    const char letter =
        result.letter_chars[static_cast<std::size_t>(key.second)];
    const std::int64_t interval = letter == 'A' ? 1'800'000 : 240'000;
    ASSERT_GE(ts.front(), window.begin.ms) << letter << " vp " << key.first;
    EXPECT_LT(ts.front(), window.begin.ms + interval)
        << letter << " vp " << key.first;
    EXPECT_LT(ts.back(), window.end.ms) << letter << " vp " << key.first;
    for (std::size_t i = 1; i < ts.size(); ++i) {
      ASSERT_EQ(ts[i] - ts[i - 1], interval)
          << letter << " vp " << key.first << " record " << i;
    }
  }
}

TEST(Engine, ProbeRttFollowsCatchmentFlips) {
  // Maintenance flaps move catchments all run long; every answered
  // probe's RTT must still be drawn around the distance to the site that
  // answered it, not to a site the VP was routed to before.
  auto config = fast_scenario();
  config.schedule = attack::AttackSchedule{};  // quiet: light queues
  config.maintenance_flap_per_step = 0.05;
  config.probe_letters = {};                   // all thirteen letters
  SimulationEngine engine(std::move(config));
  const auto result = engine.run();

  std::map<std::pair<std::uint32_t, int>, std::int16_t> last_site;
  int pairs_that_flipped = 0;
  std::size_t answered = 0;
  for (const auto& record : result.records) {
    if (record.outcome != atlas::ProbeOutcome::kSite) continue;
    ++answered;
    const auto& vp = result.vps[record.vp];
    const auto& site = result.sites[static_cast<std::size_t>(record.site_id)];
    const double b = net::base_rtt_ms(vp.location, site.location);
    // Jitter spans [0.95, 1.1) of the base; light-load queueing adds at
    // most 5 ms (times its own 1.1 jitter).
    ASSERT_GE(record.rtt_ms, std::floor(0.95 * b))
        << site.label << " vp " << record.vp;
    ASSERT_LE(record.rtt_ms, 1.1 * b + 6.0)
        << site.label << " vp " << record.vp;
    auto [it, fresh] =
        last_site.try_emplace({record.vp, record.letter_index}, record.site_id);
    if (!fresh && it->second != record.site_id) {
      if (it->second >= 0) ++pairs_that_flipped;
      it->second = -1;  // count each (VP, letter) once
    }
  }
  ASSERT_GT(answered, 0u);
  EXPECT_GT(pairs_that_flipped, 0);
}

TEST(Engine, SpilloverRaisesUniqueSourcesAtSparedLetters) {
  auto config = fast_scenario();
  config.probe_letters = {};
  config.collect_records = false;
  SimulationEngine engine(std::move(config));
  const auto result = engine.run();
  // L (spared) must show spoofed-source volume on the event day — the
  // spillover that produces the paper's 6-13x unique jumps.
  const int l = result.service_index('L');
  const auto& m = result.rssac.metrics(l, 0);
  EXPECT_GT(m.random_source_queries, 1e6);
}

TEST(Engine, MaintenanceFlapsRecover) {
  auto config = fast_scenario();
  config.schedule = attack::AttackSchedule{};  // quiet days
  config.maintenance_flap_per_step = 0.05;     // force plenty of flaps
  config.probe_letters = {};
  config.collect_records = false;
  SimulationEngine engine(std::move(config));
  const auto result = engine.run();
  ASSERT_FALSE(result.route_changes.empty());
  // Every withdrawal is followed by a matching re-announcement: the set
  // of (as, site) pairs that lost a site eventually regains it, so the
  // last change for any AS must restore a route (new_site >= 0).
  std::map<int, int> final_site;
  for (const auto& change : result.route_changes) {
    final_site[change.as_index * 64 + change.prefix] = change.new_site;
  }
  int unrestored = 0;
  for (const auto& [key, site] : final_site) {
    if (site < 0) ++unrestored;
  }
  EXPECT_EQ(unrestored, 0);
}

/// FNV-1a over the record stream and the seven fluid series (every bin's
/// count and the bit pattern of its sum).
std::uint64_t replay_digest(const SimulationResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto fold = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ull;
    }
  };
  static_assert(sizeof(atlas::ProbeRecord) == 16);
  fold(result.records.data(),
       result.records.size() * sizeof(atlas::ProbeRecord));
  for (const auto* family :
       {&result.service_offered_qps, &result.service_served_qps,
        &result.service_served_legit_qps, &result.service_failed_legit_qps,
        &result.site_served_qps, &result.site_offered_attack_qps,
        &result.site_loss_fraction}) {
    for (const util::BinnedSeries& series : *family) {
      for (std::size_t i = 0; i < series.bin_count(); ++i) {
        const std::uint64_t count = series.count(i);
        const double sum = series.sum(i);
        fold(&count, sizeof count);
        fold(&sum, sizeof sum);
      }
    }
  }
  return h;
}

TEST(Engine, CompanionReplayBitIdenticalAcrossRunsAndLanes) {
  // The benchmark's companion replay shape: november_2015 at 20 VPs over
  // both events. Probes and fluid pass 2 reuse per-VP and per-site state
  // from step to step; a second run in the same process, a traced run
  // and a 4-lane run must all write the same records and series, and
  // those must equal the digest pinned when every step recomputed them.
  const auto config = [](int threads, bool telemetry) {
    return ScenarioBuilder::november_2015()
        .seed(1)
        .vp_count(20)
        .threads(threads)
        .telemetry(telemetry)
        .collect_records(true)
        .collect_rssac(true)
        .enable_collector(true)
        .build();
  };
  std::vector<std::uint64_t> digests;
  for (const auto& [threads, telemetry] :
       {std::pair{1, false}, std::pair{1, true}, std::pair{4, false}}) {
    SimulationEngine engine(config(threads, telemetry));
    const auto result = engine.run();
    ASSERT_FALSE(result.records.empty());
    digests.push_back(replay_digest(result));
  }
  EXPECT_EQ(digests[0], digests[1]) << "second run in one process, traced";
  EXPECT_EQ(digests[0], digests[2]) << "4 lanes";
  EXPECT_EQ(digests[0], 0x5137c21663a57377ull) << std::hex << digests[0];
}

}  // namespace
}  // namespace rootstress::sim
