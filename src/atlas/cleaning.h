// Atlas data cleaning (§2.4.1).
//
// The paper discards (a) measurements from probes on firmware older than
// 4570 and (b) probes whose root traffic is served by third parties,
// detected by CHAOS replies that match no known letter pattern combined
// with implausibly short RTTs (< 7 ms). Cleaning preserved >9000 of 9363
// probes; we apply the same two rules.
#pragma once

#include <vector>

#include "atlas/probe.h"
#include "atlas/record.h"

namespace rootstress::atlas {

/// Cleaning report.
struct CleaningStats {
  int total_vps = 0;
  int dropped_old_firmware = 0;
  int dropped_hijacked = 0;
  int kept_vps = 0;
  std::size_t total_records = 0;
  std::size_t kept_records = 0;
};

/// The per-VP hijack rule: a VP is flagged when it produced at least one
/// reply that failed CHAOS pattern parsing with RTT below `rtt_floor_ms`.
inline constexpr double kHijackRttFloorMs = 7.0;

/// Returns the set of VP ids to keep, applying both rules. Records with
/// outcome kError and rtt < 7 ms are the hijack evidence (the engine
/// records failed pattern parses as kError).
std::vector<bool> select_vps(const std::vector<VantagePoint>& vps,
                             const RecordSet& records, CleaningStats* stats);

/// Drops the records of VPs not kept, in place (order preserved): the
/// store is compacted, not copied.
void filter_records(RecordSet& records, const std::vector<bool>& keep_vp,
                    CleaningStats* stats);

}  // namespace rootstress::atlas
