#include "analysis/servers.h"

#include <stdexcept>
#include <string>

#include "util/stats.h"

namespace rootstress::analysis {

std::vector<ServerSeries> server_breakdown(const atlas::RecordSet& records,
                                           const sim::SimulationResult& result,
                                           int site_id, net::SimTime start,
                                           net::SimTime width,
                                           std::size_t bins) {
  if (site_id < 0 || static_cast<std::size_t>(site_id) >= result.sites.size()) {
    throw std::out_of_range("server_breakdown: no site " +
                            std::to_string(site_id));
  }
  if (width.ms <= 0 || bins == 0) {
    throw std::invalid_argument("server_breakdown needs positive bins");
  }
  const sim::SiteMeta& site = result.sites[static_cast<std::size_t>(site_id)];
  const int servers = site.servers;
  std::vector<ServerSeries> out(static_cast<std::size_t>(servers));
  for (int s = 0; s < servers; ++s) {
    out[static_cast<std::size_t>(s)].server = s + 1;
    out[static_cast<std::size_t>(s)].replies_per_bin.assign(bins, 0);
  }
  // RTT samples keyed by (server, bin), selected per key at the end.
  std::vector<std::size_t> keys;
  std::vector<std::uint16_t> rtts;
  for (const auto& record :
       records.letter(result.service_index(site.letter))) {
    if (record.outcome != atlas::ProbeOutcome::kSite ||
        record.site_id != site_id || record.server < 1 ||
        record.server > servers) {
      continue;
    }
    const auto offset = (record.time() - start).ms;
    if (offset < 0) continue;
    const auto bin = static_cast<std::size_t>(offset / width.ms);
    if (bin >= bins) continue;
    const auto server = static_cast<std::size_t>(record.server - 1);
    ++out[server].replies_per_bin[bin];
    keys.push_back(server * bins + bin);
    rtts.push_back(record.rtt_ms);
  }
  const std::vector<double> medians = util::group_medians(
      keys, rtts, static_cast<std::size_t>(servers) * bins);
  for (std::size_t s = 0; s < out.size(); ++s) {
    const auto first = medians.begin() + static_cast<std::ptrdiff_t>(s * bins);
    out[s].median_rtt_per_bin.assign(
        first, first + static_cast<std::ptrdiff_t>(bins));
  }
  return out;
}

}  // namespace rootstress::analysis
