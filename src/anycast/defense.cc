#include "anycast/defense.h"

#include <algorithm>
#include <numeric>

namespace rootstress::anycast {

std::string to_string(AdvisedAction action) {
  switch (action) {
    case AdvisedAction::kAbsorb: return "absorb";
    case AdvisedAction::kWithdraw: return "withdraw";
    case AdvisedAction::kPartialWithdraw: return "partial-withdraw";
    case AdvisedAction::kNoAction: return "no-action";
  }
  return "?";
}

void advise(std::span<const double> capacity, std::span<const double> offered,
            std::vector<SiteAdvice>& advice, std::vector<std::size_t>& order) {
  const std::size_t n = std::min(capacity.size(), offered.size());
  advice.resize(n);
  double total_headroom = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    advice[i].site_index = static_cast<int>(i);
    advice[i].overload = capacity[i] > 0.0 ? offered[i] / capacity[i] : 0.0;
    total_headroom += std::max(0.0, capacity[i] - offered[i]);
  }

  // Most-overloaded sites get first claim on the deployment's headroom.
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return advice[a].overload > advice[b].overload;
  });

  for (const std::size_t i : order) {
    SiteAdvice& a = advice[i];
    if (a.overload <= 1.0) {
      a.action = AdvisedAction::kNoAction;
      a.rationale = "within capacity";
      continue;
    }
    if (offered[i] <= total_headroom) {
      a.action = AdvisedAction::kWithdraw;
      a.rationale = "others have headroom for this catchment";
      total_headroom -= offered[i];
      continue;
    }
    // Not fully absorbable elsewhere. If a meaningful slice could still
    // move (headroom for more than half the catchment), shed transit and
    // keep the local peers; otherwise contain the damage.
    if (total_headroom > 0.5 * offered[i]) {
      a.action = AdvisedAction::kPartialWithdraw;
      a.rationale = "partial headroom elsewhere; keep direct peers";
      total_headroom = std::max(0.0, total_headroom - 0.5 * offered[i]);
    } else {
      a.action = AdvisedAction::kAbsorb;
      a.rationale = "no headroom elsewhere; protect other sites (case 5)";
    }
  }
}

}  // namespace rootstress::anycast
