#include "analysis/reachability.h"

#include <algorithm>
#include <bitset>

namespace rootstress::analysis {

LetterReachability reachability_series(const atlas::LetterBins& bins,
                                       char letter, double probe_interval_s,
                                       bool scale_for_cadence) {
  LetterReachability out;
  out.letter = letter;
  const double bin_s = bins.bin_width().seconds();
  if (scale_for_cadence && probe_interval_s > bin_s) {
    out.scale = probe_interval_s / bin_s;
  }
  out.successful_per_bin.reserve(bins.bin_count());
  int min_vps = INT32_MAX;
  for (std::size_t b = 0; b < bins.bin_count(); ++b) {
    const int raw = bins.successful_vps(b);
    const int scaled = static_cast<int>(raw * out.scale + 0.5);
    out.successful_per_bin.push_back(scaled);
    if (scaled < min_vps) {
      min_vps = scaled;
      out.min_bin = b;
    }
  }
  out.min_vps = min_vps == INT32_MAX ? 0 : min_vps;
  return out;
}

int observed_site_count(const atlas::RecordSet& records, int service_index) {
  // Site ids are non-negative int16s: a dense seen-table covers them all.
  std::bitset<std::size_t{1} << 15> seen;
  for (const auto& record : records.letter(service_index)) {
    if (record.outcome == atlas::ProbeOutcome::kSite && record.site_id >= 0) {
      seen.set(static_cast<std::size_t>(record.site_id));
    }
  }
  return static_cast<int>(seen.count());
}

}  // namespace rootstress::analysis
