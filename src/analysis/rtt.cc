#include "analysis/rtt.h"

#include <stdexcept>

#include "util/stats.h"

namespace rootstress::analysis {

namespace {
/// The filter's conditions other than the letter, which picks the records
/// read (for_each_match).
bool matches(const atlas::ProbeRecord& record, const RttFilter& filter) {
  if (record.outcome != atlas::ProbeOutcome::kSite) return false;
  if (filter.site_id >= 0 && record.site_id != filter.site_id) return false;
  if (filter.server > 0 && record.server != filter.server) return false;
  return true;
}

/// Calls `fn` on every record `filter` selects. A letter filter reads only
/// that letter's runs; without one the whole store is read.
template <typename Fn>
void for_each_match(const atlas::RecordSet& records, const RttFilter& filter,
                    Fn fn) {
  const auto walk = [&](const auto& range) {
    for (const auto& record : range) {
      if (matches(record, filter)) fn(record);
    }
  };
  if (filter.service_index >= 0) {
    walk(records.letter(filter.service_index));
  } else {
    walk(records);
  }
}
}  // namespace

std::vector<double> median_rtt_series(const atlas::RecordSet& records,
                                      const RttFilter& filter,
                                      net::SimTime start, net::SimTime width,
                                      std::size_t bins) {
  if (width.ms <= 0 || bins == 0) {
    throw std::invalid_argument("median_rtt_series needs positive bins");
  }
  std::vector<std::size_t> bin_of_sample;
  std::vector<std::uint16_t> rtts;
  for_each_match(records, filter, [&](const atlas::ProbeRecord& record) {
    const std::int64_t t = record.time().ms;
    if (t < start.ms) return;
    const auto bin = static_cast<std::size_t>((t - start.ms) / width.ms);
    if (bin >= bins) return;
    bin_of_sample.push_back(bin);
    rtts.push_back(record.rtt_ms);
  });
  return util::group_medians(bin_of_sample, rtts, bins);
}

double median_rtt_in(const atlas::RecordSet& records, const RttFilter& filter,
                     net::SimTime from, net::SimTime to) {
  std::vector<std::uint16_t> rtts;
  for_each_match(records, filter, [&](const atlas::ProbeRecord& record) {
    const net::SimTime t = record.time();
    if (from <= t && t < to) rtts.push_back(record.rtt_ms);
  });
  return util::percentile_in_place(rtts, 50.0);
}

}  // namespace rootstress::analysis
