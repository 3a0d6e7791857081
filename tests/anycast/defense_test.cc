#include "anycast/defense.h"

#include <gtest/gtest.h>

#include <vector>

namespace rootstress::anycast {
namespace {

TEST(Defense, QuietSitesNeedNothing) {
  const std::vector<double> capacity{100, 100, 100};
  const std::vector<double> offered{50, 80, 10};
  const auto advice = advise(capacity, offered);
  for (const auto& a : advice) {
    EXPECT_EQ(a.action, AdvisedAction::kNoAction);
  }
}

TEST(Defense, WithdrawWhenOthersHaveHeadroom) {
  // Site 0 overloaded 3x; sites 1+2 have 170 spare > 150 offered.
  const std::vector<double> capacity{50, 120, 120};
  const std::vector<double> offered{150, 10, 10};
  const auto advice = advise(capacity, offered);
  EXPECT_EQ(advice[0].action, AdvisedAction::kWithdraw);
  EXPECT_NEAR(advice[0].overload, 3.0, 1e-9);
}

TEST(Defense, AbsorbWhenNoHeadroomAnywhere) {
  // Everyone overloaded: case 5, contain the damage.
  const std::vector<double> capacity{50, 50, 50};
  const std::vector<double> offered{500, 400, 300};
  const auto advice = advise(capacity, offered);
  for (const auto& a : advice) {
    EXPECT_EQ(a.action, AdvisedAction::kAbsorb) << a.site_index;
    EXPECT_FALSE(a.rationale.empty());
  }
}

TEST(Defense, PartialWhenHeadroomCoversHalf) {
  // Offered 100 at site 0; spare elsewhere = 60 (> 50, < 100).
  const std::vector<double> capacity{40, 100};
  const std::vector<double> offered{100, 40};
  const auto advice = advise(capacity, offered);
  EXPECT_EQ(advice[0].action, AdvisedAction::kPartialWithdraw);
}

TEST(Defense, HeadroomIsConsumedInOverloadOrder) {
  // Two overloaded sites compete for one pot of headroom (spare = 100 at
  // site 2). The more overloaded site gets it; the other must absorb or
  // partial.
  const std::vector<double> capacity{10, 50, 200};
  const std::vector<double> offered{100, 90, 100};
  const auto advice = advise(capacity, offered);
  EXPECT_EQ(advice[0].action, AdvisedAction::kWithdraw);  // 10x overload
  EXPECT_NE(advice[1].action, AdvisedAction::kWithdraw);  // pot is empty now
}

TEST(Defense, MismatchedSpansUseCommonLength) {
  const std::vector<double> capacity{100, 100};
  const std::vector<double> offered{50};
  EXPECT_EQ(advise(capacity, offered).size(), 1u);
}

TEST(Defense, ActionNames) {
  EXPECT_EQ(to_string(AdvisedAction::kAbsorb), "absorb");
  EXPECT_EQ(to_string(AdvisedAction::kWithdraw), "withdraw");
  EXPECT_EQ(to_string(AdvisedAction::kPartialWithdraw), "partial-withdraw");
  EXPECT_EQ(to_string(AdvisedAction::kNoAction), "no-action");
}

}  // namespace
}  // namespace rootstress::anycast
