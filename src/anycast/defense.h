// Defense advisor: per-site withdraw/absorb recommendations.
//
// Applies the §2.2 reasoning to a concrete load snapshot: a site should
// withdraw only when the rest of the deployment has spare capacity to
// take on its whole catchment (attack included); otherwise it serves
// better as a degraded absorber containing the damage. The paper notes
// operators cannot compute this live (attack volumes and locations are
// unknown to them) — the advisor exists to study what optimal policies
// would have done, and as the building block for the "better strategies"
// the paper calls future work.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rootstress::anycast {

enum class AdvisedAction {
  kAbsorb,           ///< stay announced, eat the overload
  kWithdraw,         ///< shed the catchment; others can take it
  kPartialWithdraw,  ///< shed transit, keep direct peers
  kNoAction,         ///< not overloaded
};

std::string to_string(AdvisedAction action);

/// Advice for one site.
struct SiteAdvice {
  int site_index = -1;
  AdvisedAction action = AdvisedAction::kNoAction;
  double overload = 0.0;  ///< offered / capacity
  std::string_view rationale;  ///< static text
};

/// Computes advice for every site given per-site capacities and offered
/// loads (same length; a longer span's tail is ignored) into `advice`,
/// one entry per site in site order. Withdrawal is advised only while
/// the *remaining* announced sites have enough aggregate headroom to
/// absorb the shed load; sites are considered in order of decreasing
/// overload, sorted in `order`. Both buffers are caller-owned so a
/// caller advising every step reuses their capacity.
void advise(std::span<const double> capacity, std::span<const double> offered,
            std::vector<SiteAdvice>& advice, std::vector<std::size_t>& order);

}  // namespace rootstress::anycast
