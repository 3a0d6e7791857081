#include "net/ipv4.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>

namespace rootstress::net {
namespace {

// Compound parameters hold the text as std::string: gtest prints a char
// pointer inside a pair or tuple as its address, and the printed parameter
// becomes part of the discovered test name, which must not change from run
// to run.
using Ipv4Case = std::pair<std::string, std::uint32_t>;
using EndpointCase = std::tuple<std::string, std::uint32_t, std::uint16_t>;

TEST(Ipv4, ConstructionAndValue) {
  EXPECT_EQ(Ipv4Addr(192, 0, 2, 1).value(), 0xc0000201u);
  EXPECT_EQ(Ipv4Addr().value(), 0u);
}

class Ipv4ParseValid : public ::testing::TestWithParam<Ipv4Case> {};

TEST_P(Ipv4ParseValid, Parses) {
  const auto& [text, value] = GetParam();
  const auto addr = Ipv4Addr::parse(text);
  ASSERT_TRUE(addr.has_value()) << text;
  EXPECT_EQ(addr->value(), value);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Ipv4ParseValid,
    ::testing::Values(Ipv4Case{"0.0.0.0", 0u},
                      Ipv4Case{"255.255.255.255", 0xffffffffu},
                      Ipv4Case{"192.0.2.1", 0xc0000201u},
                      Ipv4Case{"10.0.0.1", 0x0a000001u},
                      Ipv4Case{"1.2.3.4", 0x01020304u}));

class Ipv4ParseInvalid : public ::testing::TestWithParam<const char*> {};

TEST_P(Ipv4ParseInvalid, Rejects) {
  EXPECT_FALSE(Ipv4Addr::parse(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Ipv4ParseInvalid,
    ::testing::Values("", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1.2.3.999",
                      "a.b.c.d", "1..2.3", "1.2.3.4 ", " 1.2.3.4", "01.2.3.4",
                      "1.2.3.-4", "1,2,3,4"));

TEST(Ipv4, RoundTrip) {
  for (const char* text : {"0.0.0.0", "10.20.30.40", "255.0.255.1"}) {
    EXPECT_EQ(Ipv4Addr::parse(text)->to_string(), text);
  }
}

TEST(Ipv4, Ordering) {
  EXPECT_LT(Ipv4Addr(1, 0, 0, 0), Ipv4Addr(2, 0, 0, 0));
  EXPECT_EQ(Ipv4Addr(1, 2, 3, 4), *Ipv4Addr::parse("1.2.3.4"));
}

TEST(Prefix, CanonicalizesHostBits) {
  const Prefix p(Ipv4Addr(192, 0, 2, 77), 24);
  EXPECT_EQ(p.address(), Ipv4Addr(192, 0, 2, 0));
  EXPECT_EQ(p.length(), 24);
}

TEST(Prefix, ClampsLength) {
  EXPECT_EQ(Prefix(Ipv4Addr(1, 2, 3, 4), 40).length(), 32);
  EXPECT_EQ(Prefix(Ipv4Addr(1, 2, 3, 4), -1).length(), 0);
}

TEST(Prefix, Contains) {
  const Prefix p = *Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(p.contains(Ipv4Addr(10, 1, 200, 3)));
  EXPECT_FALSE(p.contains(Ipv4Addr(10, 2, 0, 0)));
  const Prefix all = *Prefix::parse("0.0.0.0/0");
  EXPECT_TRUE(all.contains(Ipv4Addr(255, 255, 255, 255)));
}

TEST(Prefix, Covers) {
  const Prefix p16 = *Prefix::parse("10.1.0.0/16");
  const Prefix p24 = *Prefix::parse("10.1.5.0/24");
  EXPECT_TRUE(p16.covers(p24));
  EXPECT_FALSE(p24.covers(p16));
  EXPECT_TRUE(p16.covers(p16));
}

class PrefixParseInvalid : public ::testing::TestWithParam<const char*> {};

TEST_P(PrefixParseInvalid, Rejects) {
  EXPECT_FALSE(Prefix::parse(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Cases, PrefixParseInvalid,
                         ::testing::Values("", "10.0.0.0", "10.0.0.0/33",
                                           "10.0.0.0/-1", "10.0.0.0/x",
                                           "300.0.0.0/8", "10.0.0.0/8x"));

TEST(Prefix, ParseAndFormat) {
  const auto p = Prefix::parse("192.0.2.128/25");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "192.0.2.128/25");
}

class EndpointParseValid : public ::testing::TestWithParam<EndpointCase> {};

TEST_P(EndpointParseValid, Parses) {
  const auto& [text, addr, port] = GetParam();
  const auto ep = Endpoint::parse(text);
  ASSERT_TRUE(ep.has_value()) << text;
  EXPECT_EQ(ep->addr.value(), addr);
  EXPECT_EQ(ep->port, port);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EndpointParseValid,
    ::testing::Values(EndpointCase{"127.0.0.1:53", 0x7f000001u, 53},
                      EndpointCase{"0.0.0.0:0", 0u, 0},
                      EndpointCase{"192.0.2.1:65535", 0xc0000201u, 65535},
                      EndpointCase{"10.0.0.1:8053", 0x0a000001u, 8053}));

class EndpointParseInvalid : public ::testing::TestWithParam<const char*> {};

TEST_P(EndpointParseInvalid, Rejects) {
  EXPECT_FALSE(Endpoint::parse(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EndpointParseInvalid,
    ::testing::Values("", "127.0.0.1", ":53", "127.0.0.1:", "127.0.0.1:65536",
                      "127.0.0.1:-1", "127.0.0.1:53x", "127.0.0.1:053",
                      "256.0.0.1:53", "host:53", "127.0.0.1:53 ",
                      "127.0.0.1 :53", "127.0.0.1::53"));

TEST(Endpoint, RoundTripAndOrdering) {
  const Endpoint ep{Ipv4Addr(127, 0, 0, 1), 8053};
  EXPECT_EQ(ep.to_string(), "127.0.0.1:8053");
  EXPECT_EQ(*Endpoint::parse(ep.to_string()), ep);
  EXPECT_LT((Endpoint{Ipv4Addr(127, 0, 0, 1), 53}), ep);
  EXPECT_LT(ep, (Endpoint{Ipv4Addr(127, 0, 0, 2), 1}));
}

TEST(Endpoint, PortZeroMeansKernelAssigned) {
  const auto ep = Endpoint::parse("127.0.0.1:0");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->port, 0);
  EXPECT_EQ(ep->to_string(), "127.0.0.1:0");
}

}  // namespace
}  // namespace rootstress::net
