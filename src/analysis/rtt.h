// RTT analyses: median RTT series for letters (Fig 4), sites (Fig 7), and
// servers (Fig 13).
#pragma once

#include <vector>

#include "atlas/record.h"
#include "net/clock.h"

namespace rootstress::analysis {

/// Selects which records contribute to an RTT series. -1/0 = no filter.
/// With a service_index the analyses read only that letter's records
/// (RecordSet::letter); without one they read the whole store.
struct RttFilter {
  int service_index = -1;
  int site_id = -1;
  int server = 0;  ///< 1-based; 0 = all servers
};

/// Median RTT (ms) of successful replies per bin; 0 for empty bins.
std::vector<double> median_rtt_series(const atlas::RecordSet& records,
                                      const RttFilter& filter,
                                      net::SimTime start, net::SimTime width,
                                      std::size_t bins);

/// Overall median RTT of successful replies matching `filter` in
/// [from, to); 0 when no samples.
double median_rtt_in(const atlas::RecordSet& records, const RttFilter& filter,
                     net::SimTime from, net::SimTime to);

}  // namespace rootstress::analysis
