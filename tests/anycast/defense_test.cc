#include "anycast/defense.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/profiler.h"

namespace rootstress::anycast {
namespace {

/// The advice into fresh buffers.
std::vector<SiteAdvice> advise(std::span<const double> capacity,
                               std::span<const double> offered) {
  std::vector<SiteAdvice> advice;
  std::vector<std::size_t> order;
  anycast::advise(capacity, offered, advice, order);
  return advice;
}

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

TEST(Defense, AdviseIntoWarmBuffersAllocatesNothing) {
  const std::vector<double> capacity{10, 50, 200, 40, 100, 50};
  const std::vector<double> first{100, 90, 100, 100, 40, 50};
  const std::vector<double> second{5, 400, 20, 100, 300, 10};
  std::vector<SiteAdvice> advice;
  std::vector<std::size_t> order;
  anycast::advise(capacity, first, advice, order);  // sizes the buffers

  const std::uint64_t before = obs::allocation_count();
  anycast::advise(capacity, second, advice, order);
  const std::uint64_t allocations = obs::allocation_count() - before;
  if (before != 0) {  // 0: the allocation hook is not active in this binary
    EXPECT_EQ(allocations, 0u);
  }

  // Whatever the first call left behind is overwritten: the warm advice
  // is exactly the advice fresh buffers get.
  const auto fresh = advise(capacity, second);
  ASSERT_EQ(advice.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(advice[i].site_index, fresh[i].site_index) << i;
    EXPECT_EQ(advice[i].action, fresh[i].action) << i;
    EXPECT_EQ(advice[i].overload, fresh[i].overload) << i;
    EXPECT_EQ(advice[i].rationale, fresh[i].rationale) << i;
  }
}

TEST(Defense, ActionNames) {
  EXPECT_EQ(to_string(AdvisedAction::kAbsorb), "absorb");
  EXPECT_EQ(to_string(AdvisedAction::kWithdraw), "withdraw");
  EXPECT_EQ(to_string(AdvisedAction::kPartialWithdraw), "partial-withdraw");
  EXPECT_EQ(to_string(AdvisedAction::kNoAction), "no-action");
}

}  // namespace
}  // namespace rootstress::anycast
