// Raw probe measurement records.
//
// One record per (VP, letter, probe). Packed to 16 bytes: full-scale runs
// produce tens of millions of records.
#pragma once

#include <cstdint>
#include <vector>

#include "net/clock.h"

namespace rootstress::atlas {

/// What a probe observed.
enum class ProbeOutcome : std::uint8_t {
  kSite = 0,     ///< got a reply mapping to a known site
  kError = 1,    ///< got a reply with an error RCODE / unparseable id
  kTimeout = 2,  ///< no reply within the Atlas timeout
};

/// One measurement. `site_id` is the deployment-global site id (-1 when
/// not applicable); `server` the 1-based answering server (0 unknown);
/// `rtt_ms` is meaningful only for kSite/kError.
struct ProbeRecord {
  std::uint32_t vp = 0;
  std::uint32_t t_s = 0;      ///< seconds since scenario epoch
  std::int16_t site_id = -1;
  std::uint16_t rtt_ms = 0;   ///< saturating at 65535
  std::uint8_t letter_index = 0;
  ProbeOutcome outcome = ProbeOutcome::kTimeout;
  std::uint8_t server = 0;
  std::uint8_t rcode = 0;

  net::SimTime time() const noexcept {
    return net::SimTime(static_cast<std::int64_t>(t_s) * 1000);
  }
};
static_assert(sizeof(ProbeRecord) == 16);

/// The record store for one run.
using RecordSet = std::vector<ProbeRecord>;

}  // namespace rootstress::atlas
