// Per-letter reachability (Fig 3) and observed-site counts (Table 2).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "atlas/binning.h"
#include "sim/engine.h"

namespace rootstress::analysis {

/// One letter's reachability series: VPs with successful queries per bin.
struct LetterReachability {
  char letter = '?';
  std::vector<int> successful_per_bin;
  int min_vps = 0;          ///< worst bin during the inspected range
  std::size_t min_bin = 0;
  double scale = 1.0;       ///< applied multiplier (A's cadence correction)
};

/// Computes the Fig 3 series for one letter's grid. When `scale_for_cadence`
/// is set and the letter was probed less often than the bin width allows
/// full coverage (A-Root's 30-minute cadence), counts are scaled by the
/// coverage ratio, as the paper does for A.
LetterReachability reachability_series(const atlas::LetterBins& bins,
                                       char letter,
                                       double probe_interval_s = 240.0,
                                       bool scale_for_cadence = false);

/// Distinct sites of `service_index` seen in the records — the paper's
/// Table 2 "sites observed" column.
int observed_site_count(const atlas::RecordSet& records, int service_index);

}  // namespace rootstress::analysis
