#include "analysis/proximity.h"

#include <algorithm>

#include "net/geo.h"
#include "util/stats.h"

namespace rootstress::analysis {

ProximitySample proximity_inflation(const sim::SimulationResult& result,
                                    char letter, net::SimTime from,
                                    net::SimTime to) {
  ProximitySample sample;
  const int service = result.service_index(letter);
  if (service < 0) return sample;
  const auto site_ids = result.sites_of(letter);
  if (site_ids.empty()) return sample;

  // Pre-compute, per VP, the best propagation RTT to any site of the
  // letter (cached: many probes per VP).
  std::vector<double> best_rtt(result.vps.size(), -1.0);
  auto best_for = [&](std::uint32_t vp) {
    double& cached = best_rtt[vp];
    if (cached < 0.0) {
      cached = 1e18;
      for (const int id : site_ids) {
        cached = std::min(
            cached, net::base_rtt_ms(
                        result.vps[vp].location,
                        result.sites[static_cast<std::size_t>(id)].location));
      }
    }
    return cached;
  };

  int optimal = 0;
  for (const auto& record : result.records.letter(service)) {
    if (record.outcome != atlas::ProbeOutcome::kSite || record.site_id < 0) {
      continue;
    }
    const net::SimTime t = record.time();
    if (t < from || !(t < to)) continue;
    if (record.vp >= result.vps.size()) continue;
    const double chosen = net::base_rtt_ms(
        result.vps[record.vp].location,
        result.sites[static_cast<std::size_t>(record.site_id)].location);
    const double inflation = std::max(0.0, chosen - best_for(record.vp));
    sample.inflation_ms.push_back(inflation);
    if (inflation < 1.0) ++optimal;
  }
  if (!sample.inflation_ms.empty()) {
    sample.median_ms = util::median(sample.inflation_ms);
    sample.p90_ms = util::percentile(sample.inflation_ms, 90.0);
    sample.optimal_fraction =
        static_cast<double>(optimal) /
        static_cast<double>(sample.inflation_ms.size());
  }
  return sample;
}

}  // namespace rootstress::analysis
