// Catchment accounting: which ASes (and how many) each site serves.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/route.h"

namespace rootstress::bgp {

/// Number of ASes routed to each site id. Index = site id; ASes with no
/// route are counted in `unreachable`.
struct CatchmentSizes {
  std::vector<int> per_site;
  int unreachable = 0;
};

/// Computes per-site AS counts from a route table. `site_count` sizes the
/// output vector (site ids must be < site_count).
CatchmentSizes catchment_sizes(const std::vector<RouteChoice>& routes,
                               int site_count);

/// Struct-of-arrays variant over AnycastRouting::site_of(): entries
/// outside [0, site_count) — the -1 default and the sink-slot convention
/// alike — count as unreachable.
CatchmentSizes catchment_sizes(std::span<const std::int32_t> site_of,
                               int site_count);

}  // namespace rootstress::bgp
