#include "util/env.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace rootstress::util {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

TEST(ParseInteger, MatchesOnlyTheWholeString) {
  EXPECT_EQ(parse_integer("42", 0, 100), 42);
  EXPECT_EQ(parse_integer("007", 0, 100), 7);
  EXPECT_EQ(parse_integer("", 0, 100), std::nullopt);
  EXPECT_EQ(parse_integer("2x", 0, 100), std::nullopt);
  EXPECT_EQ(parse_integer("x2", 0, 100), std::nullopt);
  EXPECT_EQ(parse_integer(" 2", 0, 100), std::nullopt);
  EXPECT_EQ(parse_integer("2 ", 0, 100), std::nullopt);
  EXPECT_EQ(parse_integer("2.0", 0, 100), std::nullopt);
  EXPECT_EQ(parse_integer("0x10", 0, 100), std::nullopt);
}

TEST(ParseInteger, SignsFollowTheRange) {
  EXPECT_EQ(parse_integer("-3", -5, 5), -3);
  EXPECT_EQ(parse_integer("-0", -5, 5), 0);
  EXPECT_EQ(parse_integer("-3", 0, 5), std::nullopt);
  EXPECT_EQ(parse_integer("+3", 0, 5), std::nullopt);
  EXPECT_EQ(parse_integer("-", -5, 5), std::nullopt);
}

TEST(ParseInteger, BothBoundsAreInclusive) {
  EXPECT_EQ(parse_integer("1", 1, 256), 1);
  EXPECT_EQ(parse_integer("256", 1, 256), 256);
  EXPECT_EQ(parse_integer("0", 1, 256), std::nullopt);
  EXPECT_EQ(parse_integer("257", 1, 256), std::nullopt);
}

TEST(ParseInteger, OverflowIsRejectedNotWrapped) {
  EXPECT_EQ(parse_integer("9223372036854775807", kMin, kMax), kMax);
  EXPECT_EQ(parse_integer("-9223372036854775808", kMin, kMax), kMin);
  EXPECT_EQ(parse_integer("9223372036854775808", kMin, kMax), std::nullopt);
  EXPECT_EQ(parse_integer("-9223372036854775809", kMin, kMax), std::nullopt);
  EXPECT_EQ(parse_integer("99999999999", 0, std::numeric_limits<int>::max()),
            std::nullopt);
}

TEST(ParseNumber, MatchesOnlyTheWholeString) {
  EXPECT_EQ(parse_number("5", 0.0, 10.0), 5.0);
  EXPECT_EQ(parse_number("2.5", 0.0, 10.0), 2.5);
  EXPECT_EQ(parse_number("25e-1", 0.0, 10.0), 2.5);
  EXPECT_EQ(parse_number("-0.5", -1.0, 10.0), -0.5);
  EXPECT_EQ(parse_number("5x", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_number("", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_number(" 5", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_number("5 ", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_number("+5", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_number("1,5", 0.0, 10.0), std::nullopt);
}

TEST(ParseNumber, OnlyFiniteValuesPass) {
  constexpr double kBig = std::numeric_limits<double>::max();
  EXPECT_EQ(parse_number("nan", -kBig, kBig), std::nullopt);
  EXPECT_EQ(parse_number("inf", -kBig, kBig), std::nullopt);
  EXPECT_EQ(parse_number("-inf", -kBig, kBig), std::nullopt);
  EXPECT_EQ(parse_number("infinity", -kBig, kBig), std::nullopt);
  EXPECT_EQ(parse_number("1e400", -kBig, kBig), std::nullopt);
  EXPECT_EQ(parse_number("-1e400", -kBig, kBig), std::nullopt);
  EXPECT_EQ(parse_number("1e300", -kBig, kBig), 1e300);
}

TEST(ParseNumber, BothBoundsAreInclusive) {
  EXPECT_EQ(parse_number("0", 0.0, 1000.0), 0.0);
  EXPECT_EQ(parse_number("1000", 0.0, 1000.0), 1000.0);
  EXPECT_EQ(parse_number("1e3", 0.0, 1000.0), 1000.0);
  EXPECT_EQ(parse_number("1000.001", 0.0, 1000.0), std::nullopt);
  EXPECT_EQ(parse_number("-0.001", 0.0, 1000.0), std::nullopt);
}

}  // namespace
}  // namespace rootstress::util
