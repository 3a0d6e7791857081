#include "anycast/site.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "dns/chaos.h"
#include "dns/wire.h"
#include "obs/runtime.h"

namespace rootstress::anycast {
namespace {

SiteSpec spec_with(ServerStressMode mode, int servers = 3) {
  SiteSpec spec;
  spec.code = "AMS";
  spec.servers = servers;
  spec.capacity_qps = 100e3;
  spec.buffer_packets = 150e3;
  spec.stress_mode = mode;
  return spec;
}

AnycastSite make_site(ServerStressMode mode, int servers = 3) {
  util::Rng rng(11);
  return AnycastSite(0, 'K', spec_with(mode, servers), net::GeoPoint{52, 4},
                     7, -1, StressPolicy::absorber(), rng);
}

TEST(Site, LabelAndAccessors) {
  auto site = make_site(ServerStressMode::kShareCongestion);
  EXPECT_EQ(site.label(), "K-AMS");
  EXPECT_EQ(site.server_count(), 3);
  EXPECT_EQ(site.host_as(), 7);
  EXPECT_EQ(site.scope(), SiteScope::kGlobal);
}

TEST(Site, IdleSiteAnswersEveryProbe) {
  auto site = make_site(ServerStressMode::kShareCongestion);
  site.begin_step(0.0, 1000.0, 0.0, net::SimTime(0));
  util::Rng rng(3);
  const auto query = dns::make_chaos_query(0x99);
  for (int i = 0; i < 200; ++i) {
    const net::Ipv4Addr source(static_cast<std::uint32_t>(i));
    const auto reply = site.probe(site.pick_server(source), rng);
    ASSERT_TRUE(reply.answered);
    ASSERT_GE(reply.server, 1);
    ASSERT_LE(reply.server, 3);
    EXPECT_LT(reply.extra_delay_ms, 10.0);
    // The answering server's reply must parse as this site's identity.
    const auto answer =
        site.server(reply.server - 1).dns().answer(query, source,
                                                   net::SimTime(0));
    ASSERT_TRUE(answer.has_value());
    const auto m = dns::decode(dns::encode(*answer));
    ASSERT_TRUE(m.has_value());
    const auto id = dns::parse_identity('K', *m->answers[0].txt_value());
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(id->site, "AMS");
    EXPECT_EQ(id->server, reply.server);
  }
}

TEST(Site, DownSiteNeverAnswers) {
  auto site = make_site(ServerStressMode::kShareCongestion);
  site.set_scope(SiteScope::kDown);
  site.begin_step(0.0, 1000.0, 0.0, net::SimTime(0));
  util::Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(site.probe(site.pick_server(net::Ipv4Addr(1)), rng).answered);
  }
}

TEST(Site, OverloadLossMatchesQueueModel) {
  auto site = make_site(ServerStressMode::kShareCongestion);
  // 4x overload: loss 0.75 (modulated per server by load weights).
  site.begin_step(400e3, 0.0, 0.0, net::SimTime(0));
  EXPECT_NEAR(site.outcome().loss_fraction, 0.75, 1e-9);
  util::Rng rng(5);
  int answered = 0;
  constexpr int kProbes = 4000;
  for (int i = 0; i < kProbes; ++i) {
    const net::Ipv4Addr source(static_cast<std::uint32_t>(i * 97));
    if (site.probe(site.pick_server(source), rng).answered) {
      ++answered;
    }
  }
  const double rate = answered / static_cast<double>(kProbes);
  EXPECT_GT(rate, 0.10);
  EXPECT_LT(rate, 0.40);
}

TEST(Site, ConcentrateModeUsesOneServer) {
  auto site = make_site(ServerStressMode::kConcentrate);
  site.begin_step(400e3, 0.0, 0.0, net::SimTime(0));
  util::Rng rng(6);
  std::set<int> servers_seen;
  for (int i = 0; i < 3000; ++i) {
    const net::Ipv4Addr source(static_cast<std::uint32_t>(i * 131));
    const auto reply = site.probe(site.pick_server(source), rng);
    if (reply.answered) servers_seen.insert(reply.server);
  }
  EXPECT_EQ(servers_seen.size(), 1u);
}

TEST(Site, ShareModeKeepsAllServersVisible) {
  auto site = make_site(ServerStressMode::kShareCongestion);
  site.begin_step(150e3, 0.0, 0.0, net::SimTime(0));  // mild overload
  util::Rng rng(7);
  std::set<int> servers_seen;
  for (int i = 0; i < 5000; ++i) {
    const net::Ipv4Addr source(static_cast<std::uint32_t>(i * 131));
    const auto reply = site.probe(site.pick_server(source), rng);
    if (reply.answered) servers_seen.insert(reply.server);
  }
  EXPECT_EQ(servers_seen.size(), 3u);
}

TEST(Site, BufferbloatShowsUpInProbeDelay) {
  auto site = make_site(ServerStressMode::kShareCongestion);
  site.begin_step(150e3, 0.0, 0.0, net::SimTime(0));
  util::Rng rng(8);
  double max_delay = 0.0;
  for (int i = 0; i < 500; ++i) {
    const net::Ipv4Addr source(static_cast<std::uint32_t>(i));
    const auto reply = site.probe(site.pick_server(source), rng);
    if (reply.answered) max_delay = std::max(max_delay, reply.extra_delay_ms);
  }
  // Full buffer = 150e3/100e3 = 1.5 s.
  EXPECT_GT(max_delay, 800.0);
}

TEST(Site, FacilityLossCompounds) {
  auto site = make_site(ServerStressMode::kShareCongestion);
  site.begin_step(50e3, 0.0, /*shared_loss=*/0.9, net::SimTime(0));
  EXPECT_NEAR(site.arrival_loss(), 0.9, 1e-9);
  util::Rng rng(9);
  int answered = 0;
  for (int i = 0; i < 1000; ++i) {
    const net::Ipv4Addr source(static_cast<std::uint32_t>(i));
    if (site.probe(site.pick_server(source), rng).answered) {
      ++answered;
    }
  }
  EXPECT_LT(answered, 200);
}

TEST(Site, PickServerIsTheEcmpPick) {
  // Probers keep a VP's pick per site; it must stay the balancer's hash.
  for (const int servers : {1, 2, 3, 7}) {
    for (const int site_id : {0, 5, 313}) {
      util::Rng rng(11);
      const AnycastSite site(site_id, 'K',
                             spec_with(ServerStressMode::kShareCongestion,
                                       servers),
                             net::GeoPoint{52, 4}, 7, -1,
                             StressPolicy::absorber(), rng);
      for (std::uint32_t i = 0; i < 500; ++i) {
        const net::Ipv4Addr source(i * 2654435761u);
        ASSERT_EQ(site.pick_server(source),
                  ecmp_pick(source, servers,
                            static_cast<std::uint64_t>(site_id)))
            << servers << " servers, site " << site_id << ", source " << i;
      }
    }
  }
}

/// A site wired to `runtime` the way the deployment wires every site.
void attach(AnycastSite& site, obs::Runtime& runtime) {
  SiteTelemetry telemetry;
  telemetry.runtime = &runtime;
  telemetry.overload_onsets = &runtime.metrics().counter("onsets");
  telemetry.queue = make_queue_instruments(runtime.metrics(), site.letter());
  site.attach_obs(telemetry);
}

TEST(Site, RepeatedInputsReuseOutcome) {
  // One site steps through repeated and changing inputs; after every step
  // it must look exactly like a fresh site given only that step. The
  // fresh sites share one runtime, so its queue instruments hold what
  // one fresh evaluation per step records.
  struct Step {
    double attack, legit, shared_loss, scale_capacity_by;
  };
  const std::vector<Step> steps = {
      {0.0, 1000.0, 0.0, 1.0},   {0.0, 1000.0, 0.0, 1.0},
      {400e3, 0.0, 0.0, 1.0},    {400e3, 0.0, 0.0, 1.0},
      {400e3, 0.0, 0.0, 8.0},    {400e3, 0.0, 0.0, 1.0},
      {50e3, 10.0, 0.3, 1.0},    {50e3, 10.0, 0.3, 1.0},
      {50e3, 10.0, 0.0, 1.0},    {0.0, 1000.0, 0.0, 0.125},
      {0.0, 1000.0, 0.0, 1.0},   {900e3, 0.0, 0.0, 1.0},
  };
  obs::Runtime kept_runtime(16);
  obs::Runtime fresh_runtime(16);
  auto kept = make_site(ServerStressMode::kShareCongestion);
  attach(kept, kept_runtime);
  double scale = 1.0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    if (step.scale_capacity_by != 1.0) {
      // Capacity is part of the kept outcome's key: the next step must
      // evaluate afresh.
      kept.scale_capacity(step.scale_capacity_by);
      scale *= step.scale_capacity_by;
    }
    kept.begin_step(step.attack, step.legit, step.shared_loss,
                    net::SimTime(0));

    auto fresh = make_site(ServerStressMode::kShareCongestion);
    attach(fresh, fresh_runtime);
    if (scale != 1.0) fresh.scale_capacity(scale);
    fresh.begin_step(step.attack, step.legit, step.shared_loss,
                     net::SimTime(0));

    EXPECT_EQ(std::memcmp(&kept.outcome(), &fresh.outcome(),
                          sizeof(QueueOutcome)),
              0)
        << "step " << i;
    EXPECT_EQ(kept.arrival_loss(), fresh.arrival_loss()) << "step " << i;
    // Share mode skews a probe's loss and delay by the server's weight
    // only while the site is overloaded, so equal replies on every
    // server from equal streams mean equal overload state.
    for (int server = 0; server < kept.server_count(); ++server) {
      util::Rng a(100 + i);
      util::Rng b(100 + i);
      for (int probe = 0; probe < 20; ++probe) {
        const ProbeReply x = kept.probe(server, a);
        const ProbeReply y = fresh.probe(server, b);
        ASSERT_EQ(x.answered, y.answered) << "step " << i;
        ASSERT_EQ(x.server, y.server) << "step " << i;
        ASSERT_EQ(x.extra_delay_ms, y.extra_delay_ms) << "step " << i;
      }
    }
  }

  const auto histograms = [](obs::Runtime& runtime) {
    const QueueInstruments queue =
        make_queue_instruments(runtime.metrics(), 'K');
    return std::pair{queue.utilization->snapshot(), queue.loss->snapshot()};
  };
  const auto [kept_rho, kept_loss] = histograms(kept_runtime);
  const auto [fresh_rho, fresh_loss] = histograms(fresh_runtime);
  EXPECT_EQ(kept_rho.total(), steps.size());
  EXPECT_EQ(kept_loss.total(), steps.size());
  for (std::size_t b = 0; b < kept_rho.bin_count(); ++b) {
    EXPECT_EQ(kept_rho.bin(b), fresh_rho.bin(b)) << "utilization bin " << b;
  }
  for (std::size_t b = 0; b < kept_loss.bin_count(); ++b) {
    EXPECT_EQ(kept_loss.bin(b), fresh_loss.bin(b)) << "loss bin " << b;
  }
  EXPECT_EQ(make_queue_instruments(kept_runtime.metrics(), 'K')
                .saturated_steps->value(),
            make_queue_instruments(fresh_runtime.metrics(), 'K')
                .saturated_steps->value());
}

}  // namespace
}  // namespace rootstress::anycast
