// WireServer tests drive handle_datagram — the full wire per-packet
// path — with a fixed SimTime clock and no sockets, so RRL and capacity
// accounting are deterministic; one loopback test at the end exercises
// the real socket loop.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dns/chaos.h"
#include "dns/edns.h"
#include "dns/wire.h"
#include "netio/arena.h"
#include "netio/server.h"
#include "netio/socket.h"
#include "util/rng.h"

namespace rootstress::netio {
namespace {

dns::Message make_query(std::uint16_t id,
                        const std::string& qname = "www.336901.com",
                        bool edns = true,
                        std::optional<dns::ClientSubnet> ecs = std::nullopt) {
  dns::Message query = dns::Message::query(id, *dns::Name::parse(qname),
                                           dns::RrType::kA, dns::RrClass::kIn);
  if (edns) dns::add_edns(query, 4096, /*dnssec_ok=*/false, ecs);
  return query;
}

/// Runs one encoded query through the server at `now`, returning the
/// decoded response (nullopt when dropped).
std::optional<dns::Message> ask(WireServer& server, const dns::Message& query,
                                net::SimTime now,
                                net::Ipv4Addr source = net::Ipv4Addr(127, 0, 0,
                                                                     1)) {
  const auto wire = dns::encode(query);
  std::array<std::uint8_t, kMaxPacketBytes> out{};
  const std::size_t size = server.handle_datagram(wire, source, now, out);
  if (size == 0) return std::nullopt;
  return dns::decode(std::span<const std::uint8_t>(out.data(), size));
}

TEST(WireServer, ReferralMatchesProtocolModel) {
  WireServerConfig config;
  config.rrl.enabled = false;
  WireServer server(config);
  const dns::Message query = make_query(0x4242);
  const auto response = ask(server, query, net::SimTime(0));
  ASSERT_TRUE(response.has_value());

  const dns::Message model = server.root_server().referral_response(query);
  EXPECT_EQ(response->header.id, 0x4242);
  EXPECT_TRUE(response->header.qr);
  EXPECT_EQ(response->answers.size(), model.answers.size());
  EXPECT_EQ(response->authority.size(), model.authority.size());
  EXPECT_EQ(response->additional.size(), model.additional.size());
  ASSERT_FALSE(response->authority.empty());
  EXPECT_EQ(response->authority[0].type, dns::RrType::kNs);
  EXPECT_EQ(server.stats().answered.load(), 1u);
}

TEST(WireServer, CachedResponsesOnlyDifferInMessageId) {
  WireServerConfig config;
  config.rrl.enabled = false;
  WireServer server(config);
  const auto wire_a = dns::encode(make_query(0x1111));
  const auto wire_b = dns::encode(make_query(0x2222));
  std::array<std::uint8_t, kMaxPacketBytes> out_a{};
  std::array<std::uint8_t, kMaxPacketBytes> out_b{};
  const std::size_t size_a = server.handle_datagram(
      wire_a, net::Ipv4Addr(127, 0, 0, 1), net::SimTime(0), out_a);
  const std::size_t size_b = server.handle_datagram(
      wire_b, net::Ipv4Addr(127, 0, 0, 1), net::SimTime(0), out_b);
  ASSERT_GT(size_a, 2u);
  ASSERT_EQ(size_a, size_b);
  EXPECT_EQ(server.stats().cache_misses.load(), 1u);
  EXPECT_EQ(server.stats().cache_hits.load(), 1u);
  // Identical bytes past the 2-byte id.
  EXPECT_EQ(out_a[0], 0x11);
  EXPECT_EQ(out_b[0], 0x22);
  EXPECT_TRUE(std::equal(out_a.begin() + 2, out_a.begin() + size_a,
                         out_b.begin() + 2));
}

TEST(WireServer, MalformedPacketsAreCountedNotAnswered) {
  WireServer server(WireServerConfig{});
  const std::vector<std::uint8_t> junk{0xde, 0xad, 0xbe, 0xef};
  std::array<std::uint8_t, kMaxPacketBytes> out{};
  EXPECT_EQ(server.handle_datagram(junk, net::Ipv4Addr(1, 2, 3, 4),
                                   net::SimTime(0), out),
            0u);
  EXPECT_EQ(server.stats().received.load(), 1u);
  EXPECT_EQ(server.stats().dropped_malformed.load(), 1u);
  EXPECT_EQ(server.stats().answered.load(), 0u);
}

TEST(WireServer, CapacityGateShedsArrivalsBeyondBurst) {
  WireServerConfig config;
  config.rrl.enabled = false;
  config.capacity_qps = 1000.0;
  config.queue_burst = 10.0;
  WireServer server(config);
  // 30 arrivals at one instant: the 10-deep admission bucket admits 10.
  int answered = 0;
  for (int i = 0; i < 30; ++i) {
    if (ask(server, make_query(static_cast<std::uint16_t>(i)), net::SimTime(0))
            .has_value()) {
      ++answered;
    }
  }
  EXPECT_EQ(answered, 10);
  EXPECT_EQ(server.stats().dropped_capacity.load(), 20u);
  // 10ms later: 1000 q/s accrued 10 more tokens.
  answered = 0;
  for (int i = 0; i < 30; ++i) {
    if (ask(server, make_query(static_cast<std::uint16_t>(i)),
            net::SimTime(10))
            .has_value()) {
      ++answered;
    }
  }
  EXPECT_EQ(answered, 10);
}

// Satellite: dns::Rrl response-rate accounting under the real packet
// path, deterministic via the fixed clock.
TEST(WireServer, RrlAccountsRespondDropSlipOnWirePath) {
  WireServerConfig config;
  config.rrl.enabled = true;
  config.rrl.responses_per_second = 5.0;
  config.rrl.burst = 10.0;
  config.rrl.slip = 2;
  WireServer server(config);
  const dns::ClientSubnet source{net::Ipv4Addr(198, 51, 100, 7), 32, 0};

  int full = 0;
  int truncated = 0;
  int dropped = 0;
  for (int i = 0; i < 30; ++i) {
    const auto response =
        ask(server, make_query(static_cast<std::uint16_t>(i), "www.336901.com",
                               true, source),
            net::SimTime(0));
    if (!response.has_value()) {
      ++dropped;
    } else if (response->header.tc) {
      ++truncated;
    } else {
      ++full;
    }
  }
  // Fixed clock: the 10-deep bucket answers 10, then slip=2 alternates
  // drop/slip over the remaining 20.
  EXPECT_EQ(full, 10);
  EXPECT_EQ(truncated, 10);
  EXPECT_EQ(dropped, 10);
  // Wire counters and the limiter's own accounting must agree.
  const dns::ResponseRateLimiter& rrl = server.root_server().rrl();
  EXPECT_EQ(server.stats().answered.load(), 10u);
  EXPECT_EQ(server.stats().slipped.load(), 10u);
  EXPECT_EQ(server.stats().dropped_rrl.load(), 10u);
  EXPECT_EQ(rrl.responded(), 10u);
  EXPECT_EQ(rrl.slipped(), 10u);
  EXPECT_EQ(rrl.dropped(), 10u);
  EXPECT_DOUBLE_EQ(rrl.suppression_rate(), 20.0 / 30.0);
}

// Satellite: set_enabled toggles RRL mid-run on the real packet path.
TEST(WireServer, SetEnabledTogglesSuppressionMidRun) {
  WireServerConfig config;
  config.rrl.enabled = true;
  config.rrl.responses_per_second = 5.0;
  config.rrl.burst = 4.0;
  WireServer server(config);
  const dns::ClientSubnet source{net::Ipv4Addr(198, 51, 100, 7), 32, 0};
  auto repeat = [&](int n) {
    int full = 0;
    for (int i = 0; i < n; ++i) {
      const auto r = ask(
          server,
          make_query(static_cast<std::uint16_t>(i), "www.336901.com", true,
                     source),
          net::SimTime(0));
      if (r.has_value() && !r->header.tc) ++full;
    }
    return full;
  };
  EXPECT_EQ(repeat(8), 4);  // burst, then suppression
  server.root_server().rrl().set_enabled(false);
  EXPECT_EQ(repeat(8), 8);  // limiter off: everything answered
  server.root_server().rrl().set_enabled(true);
  EXPECT_EQ(repeat(8), 0);  // bucket state kept: still exhausted
}

TEST(WireServer, RrlKeysOnClientSubnetWhenConfigured) {
  // Same wire source, distinct modeled (ECS) sources: per-source buckets
  // never exhaust, so nothing is suppressed.
  WireServerConfig config;
  config.rrl.enabled = true;
  config.rrl.burst = 4.0;
  config.rrl_keys_on_client_subnet = true;
  WireServer server(config);
  for (int i = 0; i < 64; ++i) {
    const dns::ClientSubnet ecs{
        net::Ipv4Addr(static_cast<std::uint32_t>(0x0b000000 + i * 256)), 32,
        0};
    EXPECT_TRUE(ask(server,
                    make_query(static_cast<std::uint16_t>(i), "www.336901.com",
                               true, ecs),
                    net::SimTime(0))
                    .has_value())
        << "query " << i;
  }
  EXPECT_EQ(server.stats().dropped_rrl.load(), 0u);

  // Keying off: the shared wire source exhausts one bucket.
  config.rrl_keys_on_client_subnet = false;
  WireServer keyed_off(config);
  int answered = 0;
  for (int i = 0; i < 64; ++i) {
    const dns::ClientSubnet ecs{
        net::Ipv4Addr(static_cast<std::uint32_t>(0x0b000000 + i * 256)), 32,
        0};
    const auto response =
        ask(keyed_off,
            make_query(static_cast<std::uint16_t>(i), "www.336901.com", true,
                       ecs),
            net::SimTime(0));
    if (response.has_value() && !response->header.tc) ++answered;
  }
  EXPECT_EQ(answered, 4);  // just the burst
  EXPECT_GT(keyed_off.stats().dropped_rrl.load(), 0u);
}

TEST(WireServer, ChaosQueriesServedThroughProtocolModel) {
  WireServerConfig config;
  config.rrl.enabled = false;
  WireServer server(config);
  const auto response =
      ask(server, dns::make_chaos_query(0x77), net::SimTime(0));
  ASSERT_TRUE(response.has_value());
  ASSERT_FALSE(response->answers.empty());
  EXPECT_EQ(response->answers[0].type, dns::RrType::kTxt);
  EXPECT_EQ(server.stats().chaos.load(), 1u);
}

TEST(WireServer, UncachedModeStillAnswers) {
  WireServerConfig config;
  config.rrl.enabled = false;
  config.cache_responses = false;
  WireServer server(config);
  const auto response = ask(server, make_query(7), net::SimTime(0));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.id, 7);
  EXPECT_EQ(server.stats().cache_misses.load(), 0u);
  EXPECT_EQ(server.stats().cache_hits.load(), 0u);
}

TEST(WireServer, PacketCacheStopsGrowingAtItsCap) {
  WireServerConfig config;
  config.rrl.enabled = false;
  WireServer server(config);
  const auto name = [](std::size_t i) {
    return "www." + std::to_string(i) + ".com";
  };
  constexpr std::size_t kPast = 5;  // distinct names beyond the cap
  const std::size_t names = WireServer::kPacketCacheEntries + kPast;
  for (std::size_t i = 0; i < names; ++i) {
    ASSERT_TRUE(ask(server, make_query(1, name(i)), net::SimTime(0)));
  }
  const WireServerStats& stats = server.stats();
  EXPECT_EQ(stats.cache_misses.load(), names);
  EXPECT_EQ(stats.cache_hits.load(), 0u);

  // The first name was cached before the cap and still hits.
  const auto first = ask(server, make_query(2, name(0)), net::SimTime(0));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->header.id, 2);
  EXPECT_EQ(stats.cache_hits.load(), 1u);

  // A new name past the cap is answered in full but never cached.
  for (const std::uint16_t id : {3, 4}) {
    const auto reply = ask(server, make_query(id, "www.fresh.com"),
                           net::SimTime(0));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.id, id);
    EXPECT_FALSE(reply->authority.empty());
  }
  EXPECT_EQ(stats.cache_misses.load(), names + 2);
  EXPECT_EQ(stats.cache_hits.load(), 1u);
}

// Mutants of the 2015 attack query shape (EDNS with an ECS option)
// through the fixed-clock path, with RRL and the capacity gate both
// live: every reply is a response carrying the mutant's id, and every
// packet lands in exactly one outcome counter.
TEST(WireServer, MutatedEcsQueriesAreAnsweredOrCountedNeverCrash) {
  WireServerConfig config;
  config.rrl.enabled = true;
  config.rrl.responses_per_second = 50.0;
  config.rrl.burst = 20.0;
  config.rrl.slip = 2;
  config.capacity_qps = 1000.0;
  config.queue_burst = 8.0;
  WireServer server(config);
  const dns::ClientSubnet ecs{net::Ipv4Addr(198, 51, 100, 0), 24, 0};
  const auto wire =
      dns::encode(make_query(0x5a5a, "www.336901.com", true, ecs));
  util::Rng rng(336901);
  std::array<std::uint8_t, kMaxPacketBytes> out{};
  for (int trial = 0; trial < 2000; ++trial) {
    auto copy = wire;
    copy[rng.below(copy.size())] = static_cast<std::uint8_t>(rng.below(256));
    if (trial % 8 == 0) copy.resize(rng.below(copy.size()));
    // 4 packets per 3 ms against a 1000 q/s gate: some are shed.
    const std::size_t size =
        server.handle_datagram(copy, net::Ipv4Addr(192, 0, 2, 1),
                               net::SimTime(trial * 3 / 4), out);
    if (size == 0) continue;
    const auto response =
        dns::decode(std::span<const std::uint8_t>(out.data(), size));
    ASSERT_TRUE(response.has_value()) << "trial " << trial;
    EXPECT_TRUE(response->header.qr) << "trial " << trial;
    ASSERT_GE(copy.size(), 2u);
    EXPECT_EQ(response->header.id, (copy[0] << 8) | copy[1])
        << "trial " << trial;
  }
  const WireServerStats& stats = server.stats();
  EXPECT_EQ(stats.received.load(), 2000u);
  EXPECT_EQ(stats.received.load(),
            stats.answered.load() + stats.slipped.load() +
                stats.dropped_rrl.load() + stats.dropped_capacity.load() +
                stats.dropped_malformed.load());
  for (const auto* counter :
       {&stats.answered, &stats.slipped, &stats.dropped_rrl,
        &stats.dropped_capacity, &stats.dropped_malformed}) {
    EXPECT_GT(counter->load(), 0u);  // every outcome is exercised
  }
}

TEST(WireServer, LoopbackIntegrationAnswersRealSocketQuery) {
  WireServerConfig config;
  config.rrl.enabled = false;
  WireServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_NE(server.endpoint().port, 0);

  UdpSocket client = UdpSocket::open(BatchMode::kAuto, &error);
  ASSERT_TRUE(client.valid()) << error;
  auto wire = dns::encode(make_query(0xabcd));
  Datagram out{server.endpoint(),
               std::span<std::uint8_t>(wire.data(), wire.size())};
  ASSERT_EQ(client.send_batch({&out, 1}), 1u);

  PacketArena arena(1);
  Datagram in{{}, arena.slot(0)};
  std::size_t got = 0;
  for (int rounds = 0; rounds < 200 && got == 0; ++rounds) {
    client.wait_readable(25);
    got = client.recv_batch({&in, 1});
  }
  server.stop();
  ASSERT_EQ(got, 1u);
  const auto response = dns::decode(in.payload);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.id, 0xabcd);
  EXPECT_TRUE(response->header.qr);
  EXPECT_GE(server.stats().received.load(), 1u);
  EXPECT_GE(server.stats().answered.load(), 1u);
}

}  // namespace
}  // namespace rootstress::netio
