// Per-server breakdowns within one site (§3.5, Figs 12-13).
#pragma once

#include <vector>

#include "atlas/record.h"
#include "net/clock.h"
#include "sim/engine.h"

namespace rootstress::analysis {

/// One server's visibility over time.
struct ServerSeries {
  int server = 0;  ///< 1-based
  std::vector<int> replies_per_bin;
  std::vector<double> median_rtt_per_bin;  ///< 0 for empty bins
};

/// Reachability and RTT per server of `site_id`, over `bins` x `width`
/// bins starting at `start`. Reads only the records of the site's letter.
/// Throws std::out_of_range when `site_id` is not an index into
/// `result.sites`.
std::vector<ServerSeries> server_breakdown(const atlas::RecordSet& records,
                                           const sim::SimulationResult& result,
                                           int site_id, net::SimTime start,
                                           net::SimTime width,
                                           std::size_t bins);

}  // namespace rootstress::analysis
