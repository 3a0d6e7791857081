#include "anycast/site.h"

#include <gtest/gtest.h>

#include "dns/chaos.h"
#include "dns/wire.h"

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
    const auto reply = site.probe(source, rng);
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
    EXPECT_FALSE(site.probe(net::Ipv4Addr(1), rng).answered);
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
    if (site.probe(net::Ipv4Addr(static_cast<std::uint32_t>(i * 97)), rng)
            .answered) {
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
    const auto reply =
        site.probe(net::Ipv4Addr(static_cast<std::uint32_t>(i * 131)), rng);
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
    const auto reply =
        site.probe(net::Ipv4Addr(static_cast<std::uint32_t>(i * 131)), rng);
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
    const auto reply =
        site.probe(net::Ipv4Addr(static_cast<std::uint32_t>(i)), rng);
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
    if (site.probe(net::Ipv4Addr(static_cast<std::uint32_t>(i)), rng)
            .answered) {
      ++answered;
    }
  }
  EXPECT_LT(answered, 200);
}

}  // namespace
}  // namespace rootstress::anycast
