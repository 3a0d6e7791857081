#include "analysis/behavior.h"

#include <algorithm>

#include "util/stats.h"

namespace rootstress::analysis {

std::string to_string(SiteBehavior behavior) {
  switch (behavior) {
    case SiteBehavior::kUnaffected: return "unaffected";
    case SiteBehavior::kWithdrew: return "withdrew";
    case SiteBehavior::kDegradedAbsorber: return "degraded-absorber";
    case SiteBehavior::kReceiver: return "receiver";
    case SiteBehavior::kLowVisibility: return "low-visibility";
  }
  return "?";
}

std::vector<SiteBehaviorReport> classify_sites(
    const atlas::LetterBins& bins, const atlas::RecordSet& records,
    const sim::SimulationResult& result, char letter,
    const std::vector<std::size_t>& event_bins,
    const BehaviorThresholds& thresholds) {
  const auto letter_records = records.letter(result.service_index(letter));
  std::vector<bool> is_event_bin(bins.bin_count(), false);
  for (const std::size_t b : event_bins) {
    if (b < is_event_bin.size()) is_event_bin[b] = true;
  }
  std::vector<SiteBehaviorReport> reports;
  std::vector<std::uint16_t> quiet_rtt, event_rtt;

  for (const int site_id : result.sites_of(letter)) {
    SiteBehaviorReport report;
    report.site_id = site_id;
    report.label = result.sites[static_cast<std::size_t>(site_id)].label;

    std::vector<double> series;
    series.reserve(bins.bin_count());
    for (std::size_t b = 0; b < bins.bin_count(); ++b) {
      series.push_back(static_cast<double>(bins.vps_at_site(b, site_id)));
    }
    report.median_vps = util::median(series);
    if (report.median_vps < thresholds.min_median_vps) {
      report.behavior = SiteBehavior::kLowVisibility;
      reports.push_back(std::move(report));
      continue;
    }

    double lo = 1e18, hi = 0.0;
    int collapsed_bins = 0, counted_bins = 0;
    for (const std::size_t b : event_bins) {
      if (b >= series.size()) continue;
      lo = std::min(lo, series[b]);
      hi = std::max(hi, series[b]);
      ++counted_bins;
      if (series[b] < thresholds.withdrew_below * report.median_vps) {
        ++collapsed_bins;
      }
    }
    report.event_min_fraction = lo / report.median_vps;
    report.event_max_fraction = hi / report.median_vps;
    const bool sustained_collapse =
        counted_bins > 0 &&
        static_cast<double>(collapsed_bins) / counted_bins >=
            thresholds.withdrew_sustain;

    // RTT evidence from records: quiet vs. event medians at this site.
    quiet_rtt.clear();
    event_rtt.clear();
    for (const auto& record : letter_records) {
      if (record.outcome != atlas::ProbeOutcome::kSite ||
          record.site_id != site_id) {
        continue;
      }
      const std::size_t b = bins.bin_of(record.time());
      const bool in_event = b < is_event_bin.size() && is_event_bin[b];
      (in_event ? event_rtt : quiet_rtt).push_back(record.rtt_ms);
    }
    report.rtt_quiet_ms = util::percentile_in_place(quiet_rtt, 50.0);
    report.rtt_event_ms = util::percentile_in_place(event_rtt, 50.0);

    // Decision ladder, most specific first. A sustained collapse reads
    // as withdrawal even when a handful of slow replies survive (that is
    // how the paper reads E-AMS: "completely unavailable").
    if (sustained_collapse) {
      report.behavior = SiteBehavior::kWithdrew;
    } else if (report.rtt_quiet_ms > 0.0 && report.rtt_event_ms >
               thresholds.rtt_inflation * report.rtt_quiet_ms) {
      report.behavior = SiteBehavior::kDegradedAbsorber;
    } else if (report.event_min_fraction <
               thresholds.absorber_loss_fraction) {
      // Partially down but still answering: absorbing with loss.
      report.behavior = SiteBehavior::kDegradedAbsorber;
    } else if (report.event_max_fraction > thresholds.receiver_above) {
      report.behavior = SiteBehavior::kReceiver;
    } else {
      report.behavior = SiteBehavior::kUnaffected;
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

BehaviorInventory inventory(const std::vector<SiteBehaviorReport>& reports,
                            char letter) {
  BehaviorInventory inv;
  inv.letter = letter;
  for (const auto& report : reports) {
    switch (report.behavior) {
      case SiteBehavior::kUnaffected: ++inv.unaffected; break;
      case SiteBehavior::kWithdrew: ++inv.withdrew; break;
      case SiteBehavior::kDegradedAbsorber: ++inv.absorbers; break;
      case SiteBehavior::kReceiver: ++inv.receivers; break;
      case SiteBehavior::kLowVisibility: ++inv.low_visibility; break;
    }
  }
  return inv;
}

}  // namespace rootstress::analysis
